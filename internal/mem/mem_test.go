package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"shrimp/internal/addr"
)

func TestNewPhysicalGeometry(t *testing.T) {
	p := NewPhysical(16)
	if p.Frames() != 16 {
		t.Fatalf("Frames() = %d, want 16", p.Frames())
	}
	if p.Size() != 16*addr.PageSize {
		t.Fatalf("Size() = %d, want %d", p.Size(), 16*addr.PageSize)
	}
}

func TestNewPhysicalRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPhysical(%d) did not panic", n)
				}
			}()
			NewPhysical(n)
		}()
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	p := NewPhysical(4)
	src := []byte("protected user-level DMA")
	if err := p.Write(0x1234, src); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(0x1234, len(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("Read = %q, want %q", got, src)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	p := NewPhysical(1)
	p.Write(0, []byte{9})
	got, _ := p.Read(0, 1)
	got[0] = 42
	again, _ := p.Read(0, 1)
	if again[0] != 9 {
		t.Fatal("Read returned a view into memory, want a copy")
	}
}

func TestOutOfRangeAccessIsBusError(t *testing.T) {
	p := NewPhysical(1)
	if _, err := p.Read(addr.PAddr(addr.PageSize-2), 4); err == nil {
		t.Fatal("read spanning end of RAM succeeded")
	}
	if err := p.Write(addr.PAddr(addr.PageSize), []byte{1}); err == nil {
		t.Fatal("write past end of RAM succeeded")
	}
	if _, err := p.Read(addr.PAddr(addr.MemProxyBase), 4); err == nil {
		t.Fatal("read of proxy-region address through RAM succeeded")
	}
	if _, err := p.Read(0, -1); err == nil {
		t.Fatal("negative-length read succeeded")
	}
	if _, err := p.View(addr.PAddr(addr.PageSize-2), 4); err == nil {
		t.Fatal("view spanning end of RAM succeeded")
	}
	if _, err := p.View(addr.PAddr(addr.MemProxyBase), 4); err == nil {
		t.Fatal("view of proxy-region address through RAM succeeded")
	}
}

func TestViewAliasesMemory(t *testing.T) {
	p := NewPhysical(1)
	p.Write(8, []byte{1, 2, 3, 4})
	v, err := p.View(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte{1, 2, 3, 4}) || cap(v) != 4 {
		t.Fatalf("View = %v (cap %d), want [1 2 3 4] with capacity 4", v, cap(v))
	}
	p.Write(8, []byte{9})
	if v[0] != 9 {
		t.Fatal("View returned a copy, want a view into memory")
	}
}

func TestContains(t *testing.T) {
	p := NewPhysical(2)
	cases := []struct {
		a    addr.PAddr
		n    int
		want bool
	}{
		{0, 0, true},
		{0, 2 * addr.PageSize, true},
		{0, 2*addr.PageSize + 1, false},
		{addr.PAddr(2 * addr.PageSize), 0, true},
		{addr.PAddr(addr.MemProxyBase), 4, false},
		{0, -1, false},
	}
	for _, tc := range cases {
		if got := p.Contains(tc.a, tc.n); got != tc.want {
			t.Errorf("Contains(%#x, %d) = %v, want %v", uint32(tc.a), tc.n, got, tc.want)
		}
	}
}

func TestWordRoundTrip(t *testing.T) {
	p := NewPhysical(1)
	if err := p.WriteWord(8, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := p.ReadWord(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("ReadWord = %#x, want 0xDEADBEEF", v)
	}
}

func TestWordIsLittleEndian(t *testing.T) {
	p := NewPhysical(1)
	p.WriteWord(0, 0x04030201)
	b, _ := p.Read(0, 4)
	if !bytes.Equal(b, []byte{1, 2, 3, 4}) {
		t.Fatalf("word bytes = %v, want little-endian [1 2 3 4]", b)
	}
}

func TestUnalignedWordAllowed(t *testing.T) {
	p := NewPhysical(1)
	if err := p.WriteWord(3, 0x11223344); err != nil {
		t.Fatalf("unaligned WriteWord failed: %v", err)
	}
	if v, _ := p.ReadWord(3); v != 0x11223344 {
		t.Fatalf("unaligned ReadWord = %#x", v)
	}
}

func TestWordAtEdge(t *testing.T) {
	p := NewPhysical(1)
	if _, err := p.ReadWord(addr.PAddr(addr.PageSize - 3)); err == nil {
		t.Fatal("word read spanning end of RAM succeeded")
	}
	if _, err := p.ReadWord(addr.PAddr(addr.PageSize - 4)); err != nil {
		t.Fatalf("last full word read failed: %v", err)
	}
}

func TestFrameOps(t *testing.T) {
	p := NewPhysical(3)
	page := make([]byte, addr.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	if err := p.SetFrame(1, page); err != nil {
		t.Fatal(err)
	}
	got, err := p.Frame(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("Frame round trip mismatch")
	}
	if err := p.ZeroFrame(1); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Frame(1)
	for _, b := range got {
		if b != 0 {
			t.Fatal("ZeroFrame left nonzero bytes")
		}
	}
	// Neighbors untouched.
	p.SetFrame(0, page)
	p.SetFrame(2, page)
	p.ZeroFrame(1)
	f0, _ := p.Frame(0)
	f2, _ := p.Frame(2)
	if !bytes.Equal(f0, page) || !bytes.Equal(f2, page) {
		t.Fatal("ZeroFrame touched a neighboring frame")
	}
}

func TestSetFrameWrongSize(t *testing.T) {
	p := NewPhysical(1)
	if err := p.SetFrame(0, []byte{1, 2, 3}); err == nil {
		t.Fatal("SetFrame with short page succeeded")
	}
}

// Property: writes at disjoint addresses do not interfere.
func TestDisjointWritesProperty(t *testing.T) {
	p := NewPhysical(16) // 64 KB: covers every uint16 address
	prop := func(a16, b16 uint16, av, bv byte) bool {
		a := addr.PAddr(a16)
		b := addr.PAddr(b16)
		if a == b {
			return true
		}
		if err := p.Write(a, []byte{av}); err != nil {
			return false
		}
		if err := p.Write(b, []byte{bv}); err != nil {
			return false
		}
		ga, _ := p.Read(a, 1)
		gb, _ := p.Read(b, 1)
		return ga[0] == av && gb[0] == bv
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBackingStoreAllocFree(t *testing.T) {
	b := NewBackingStore()
	s1 := b.Alloc()
	s2 := b.Alloc()
	if s1 == s2 {
		t.Fatal("Alloc returned duplicate slots")
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if err := b.Free(s1); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(s1); err == nil {
		t.Fatal("double Free succeeded")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
}

func TestBackingStoreFreshSlotReadsZero(t *testing.T) {
	b := NewBackingStore()
	s := b.Alloc()
	page, err := b.ReadPage(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != addr.PageSize {
		t.Fatalf("page length %d", len(page))
	}
	for _, v := range page {
		if v != 0 {
			t.Fatal("fresh slot not zero-filled")
		}
	}
}

func TestBackingStoreRoundTrip(t *testing.T) {
	b := NewBackingStore()
	s := b.Alloc()
	page := make([]byte, addr.PageSize)
	for i := range page {
		page[i] = byte(i * 7)
	}
	if err := b.WritePage(s, page); err != nil {
		t.Fatal(err)
	}
	page[0] = 0xFF // caller's buffer must not alias the store
	got, err := b.ReadPage(s)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 7 {
		t.Fatalf("swap contents corrupted: %v...", got[:4])
	}
	got[1] = 0xEE
	again, _ := b.ReadPage(s)
	if again[1] != 7 {
		t.Fatal("ReadPage returned a view, want a copy")
	}
}

func TestBackingStoreErrors(t *testing.T) {
	b := NewBackingStore()
	if _, err := b.ReadPage(99); err == nil {
		t.Fatal("read of unallocated slot succeeded")
	}
	if err := b.WritePage(99, make([]byte, addr.PageSize)); err == nil {
		t.Fatal("write of unallocated slot succeeded")
	}
	s := b.Alloc()
	if err := b.WritePage(s, []byte{1}); err == nil {
		t.Fatal("short page write succeeded")
	}
}
