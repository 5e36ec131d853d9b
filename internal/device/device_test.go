package device

import (
	"bytes"
	"testing"

	"shrimp/internal/addr"
)

func TestDevAddrLinear(t *testing.T) {
	d := DevAddr{Page: 3, Off: 100}
	if d.Linear() != 3*4096+100 {
		t.Fatalf("Linear = %d", d.Linear())
	}
}

func TestMapAttachAndResolve(t *testing.T) {
	m := NewMap()
	d1 := NewBuffer("d1", 4, 0, 0)
	d2 := NewBuffer("d2", 2, 0, 0)
	if err := m.Attach(d1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(d2, 4); err != nil {
		t.Fatal(err)
	}

	dev, da, ok := m.Resolve(addr.DevProxy(5, 7))
	if !ok || dev != d2 || da.Page != 1 || da.Off != 7 {
		t.Fatalf("Resolve = (%v,%+v,%v)", dev, da, ok)
	}
	dev, da, ok = m.Resolve(addr.DevProxy(0, 0))
	if !ok || dev != d1 || da.Page != 0 {
		t.Fatalf("Resolve page 0 = (%v,%+v,%v)", dev, da, ok)
	}
}

func TestMapResolveMisses(t *testing.T) {
	m := NewMap()
	m.Attach(NewBuffer("d", 2, 0, 0), 10)
	if _, _, ok := m.Resolve(addr.DevProxy(9, 0)); ok {
		t.Fatal("resolved below range")
	}
	if _, _, ok := m.Resolve(addr.DevProxy(12, 0)); ok {
		t.Fatal("resolved above range")
	}
	if _, _, ok := m.Resolve(addr.PAddr(0x1000)); ok {
		t.Fatal("resolved a memory address")
	}
}

func TestMapRejectsOverlap(t *testing.T) {
	m := NewMap()
	if err := m.Attach(NewBuffer("a", 4, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	cases := []uint32{0, 3}
	for _, first := range cases {
		if err := m.Attach(NewBuffer("b", 2, 0, 0), first); err == nil {
			t.Fatalf("overlapping attach at %d succeeded", first)
		}
	}
	if err := m.Attach(NewBuffer("c", 2, 0, 0), 4); err != nil {
		t.Fatalf("adjacent attach failed: %v", err)
	}
}

func TestMapRejectsOutOfRegion(t *testing.T) {
	m := NewMap()
	if err := m.Attach(NewBuffer("big", 8, 0, 0), addr.RegionMaxPage-4); err == nil {
		t.Fatal("attach past region end succeeded")
	}
}

func TestMapPageRange(t *testing.T) {
	m := NewMap()
	d := NewBuffer("d", 3, 0, 0)
	m.Attach(d, 100)
	first, n, ok := m.PageRange(d)
	if !ok || first != 100 || n != 3 {
		t.Fatalf("PageRange = (%d,%d,%v)", first, n, ok)
	}
	if _, _, ok := m.PageRange(NewBuffer("other", 1, 0, 0)); ok {
		t.Fatal("PageRange found unattached device")
	}
	if len(m.entries) != 1 || m.entries[0].dev != d {
		t.Fatal("attached devices wrong")
	}
}

func TestBufferReadWrite(t *testing.T) {
	b := NewBuffer("buf", 2, 0, 0)
	data := []byte("deliberate update")
	if err := b.Write(DevAddr{Page: 1, Off: 10}, data, 0); err != nil {
		t.Fatal(err)
	}
	got, err := b.Read(DevAddr{Page: 1, Off: 10}, len(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Read = %q", got)
	}
	w, r := b.Counts()
	if w != 1 || r != 1 {
		t.Fatalf("Counts = (%d,%d)", w, r)
	}
}

func TestBufferBounds(t *testing.T) {
	b := NewBuffer("buf", 1, 0, 0)
	if err := b.Write(DevAddr{Page: 0, Off: 4090}, make([]byte, 100), 0); err == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
	if _, err := b.Read(DevAddr{Page: 1, Off: 0}, 1, 0); err == nil {
		t.Fatal("out-of-bounds read succeeded")
	}
}

func TestBufferCheckTransfer(t *testing.T) {
	b := NewBuffer("buf", 1, 4, 0)
	cases := []struct {
		da       DevAddr
		n        int
		wantBits ErrBits
	}{
		{DevAddr{0, 0}, 64, 0},
		{DevAddr{0, 2}, 64, ErrAlignment},
		{DevAddr{0, 0}, 63, ErrAlignment},
		{DevAddr{0, 4092}, 8, ErrBounds},
		{DevAddr{0, 4094}, 8, ErrAlignment | ErrBounds},
	}
	for _, tc := range cases {
		if got := b.CheckTransfer(tc.da, tc.n, true); got != tc.wantBits {
			t.Errorf("CheckTransfer(%+v,%d) = %#x, want %#x", tc.da, tc.n, uint32(got), uint32(tc.wantBits))
		}
	}
}

func TestBufferNoAlignmentWhenDisabled(t *testing.T) {
	b := NewBuffer("buf", 1, 0, 0)
	if got := b.CheckTransfer(DevAddr{0, 3}, 5, false); got != 0 {
		t.Fatalf("unaligned transfer rejected with %#x despite align=0", uint32(got))
	}
}

func TestBufferLatency(t *testing.T) {
	b := NewBuffer("buf", 1, 0, 99)
	if got := b.TransferLatency(DevAddr{}, 4096); got != 99 {
		t.Fatalf("TransferLatency = %d, want 99", got)
	}
}

func TestBufferDirectHooks(t *testing.T) {
	b := NewBuffer("buf", 1, 0, 0)
	b.SetBytes(100, []byte{1, 2, 3})
	if got := b.Bytes(100, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", got)
	}
}

func TestBufferZeroPagesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuffer(0 pages) did not panic")
		}
	}()
	NewBuffer("bad", 0, 0, 0)
}
