package device

import (
	"bytes"
	"testing"
)

func TestDiskReadWrite(t *testing.T) {
	d := NewDisk("sd0", 64, 10, 100)
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i)
	}
	if err := d.Write(DevAddr{Page: 5, Off: 512}, data, 0); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(DevAddr{Page: 5, Off: 512}, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("disk round trip failed")
	}
	r, w, _ := d.Stats()
	if r != 1 || w != 1 {
		t.Fatalf("stats = %d,%d", r, w)
	}
}

func TestDiskCheckTransfer(t *testing.T) {
	d := NewDisk("sd0", 8, 1, 1)
	cases := []struct {
		da   DevAddr
		n    int
		want ErrBits
	}{
		{DevAddr{0, 0}, 512, 0},
		{DevAddr{0, 512}, 1024, 0},
		{DevAddr{0, 100}, 512, ErrAlignment},
		{DevAddr{0, 0}, 500, ErrAlignment},
		{DevAddr{0, 3584}, 1024, ErrBounds},
		{DevAddr{9, 0}, 512, ErrBounds},
	}
	for _, tc := range cases {
		if got := d.CheckTransfer(tc.da, tc.n, true); got != tc.want {
			t.Errorf("CheckTransfer(%+v,%d) = %#x, want %#x", tc.da, tc.n, uint32(got), uint32(tc.want))
		}
	}
}

func TestDiskSeekModel(t *testing.T) {
	d := NewDisk("sd0", 100, 10, 50)
	// Head at 0: access block 20 → 50 + 20*10.
	if got := d.TransferLatency(DevAddr{Page: 20}, 512); got != 250 {
		t.Fatalf("latency = %d, want 250", got)
	}
	d.Write(DevAddr{Page: 20}, make([]byte, 512), 0)
	if d.head != 20 {
		t.Fatalf("head = %d, want 20", d.head)
	}
	// Sequential access is now cheap.
	if got := d.TransferLatency(DevAddr{Page: 20}, 512); got != 50 {
		t.Fatalf("same-block latency = %d, want 50", got)
	}
	// Backward seek costs the same as forward.
	if got := d.TransferLatency(DevAddr{Page: 10}, 512); got != 150 {
		t.Fatalf("backward latency = %d, want 150", got)
	}
	_, _, seeks := d.Stats()
	if seeks != 20 {
		t.Fatalf("seekBlocks = %d, want 20", seeks)
	}
}

func TestDiskPreloadPeek(t *testing.T) {
	d := NewDisk("sd0", 4, 1, 1)
	if err := d.Preload(2, []byte("boot sector")); err != nil {
		t.Fatal(err)
	}
	if got := d.block(2)[:11]; string(got) != "boot sector" {
		t.Fatalf("block 2 = %q", got)
	}
	if err := d.Preload(9, nil); err == nil {
		t.Fatal("out-of-range preload succeeded")
	}
}

func TestDiskBoundsErrors(t *testing.T) {
	d := NewDisk("sd0", 2, 1, 1)
	if err := d.Write(DevAddr{Page: 2}, make([]byte, 512), 0); err == nil {
		t.Fatal("write past last block succeeded")
	}
	if _, err := d.Read(DevAddr{Page: 0, Off: 4000}, 512, 0); err == nil {
		t.Fatal("read across block end succeeded")
	}
}

func TestDiskZeroBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDisk(0) did not panic")
		}
	}()
	NewDisk("bad", 0, 1, 1)
}

func TestFrameBufferBlit(t *testing.T) {
	f := NewFrameBuffer("fb0", 64, 32, 7)
	// Blit two pixels at (3, 2).
	data := []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}
	if err := f.Write(DevAddr{Page: 0, Off: f.PixelOff(3, 2)}, data, 0); err != nil {
		t.Fatal(err)
	}
	if got := f.Pixel(3, 2); got != 0x44332211 {
		t.Fatalf("pixel(3,2) = %#x", got)
	}
	if got := f.Pixel(4, 2); got != 0x88776655 {
		t.Fatalf("pixel(4,2) = %#x", got)
	}
	got, err := f.Read(DevAddr{Page: 0, Off: f.PixelOff(3, 2)}, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
}

func TestFrameBufferGeometry(t *testing.T) {
	f := NewFrameBuffer("fb0", 640, 480, 0)
	wantPages := uint32((640*480*4 + pageSize - 1) / pageSize)
	if f.Pages() != wantPages {
		t.Fatalf("Pages = %d, want %d", f.Pages(), wantPages)
	}
	if f.Width() != 640 || f.Height() != 480 {
		t.Fatal("geometry accessors wrong")
	}
	if f.PixelOff(1, 1) != 4*(640+1) {
		t.Fatalf("PixelOff = %d", f.PixelOff(1, 1))
	}
}

func TestFrameBufferCheckTransfer(t *testing.T) {
	f := NewFrameBuffer("fb0", 16, 16, 0) // 1024 bytes of pixels
	if bits := f.CheckTransfer(DevAddr{0, 0}, 1024, true); bits != 0 {
		t.Fatalf("full blit rejected: %#x", uint32(bits))
	}
	if bits := f.CheckTransfer(DevAddr{0, 2}, 8, true); bits&ErrAlignment == 0 {
		t.Fatal("misaligned blit accepted")
	}
	if bits := f.CheckTransfer(DevAddr{0, 1020}, 8, true); bits&ErrBounds == 0 {
		t.Fatal("out-of-bounds blit accepted")
	}
	if f.TransferLatency(DevAddr{}, 4) != 0 {
		t.Fatal("latency should be 0 when retrace is 0")
	}
}

func TestFrameBufferBoundsErrors(t *testing.T) {
	f := NewFrameBuffer("fb0", 4, 4, 0)
	if err := f.Write(DevAddr{0, 60}, make([]byte, 8), 0); err == nil {
		t.Fatal("blit past end succeeded")
	}
	if _, err := f.Read(DevAddr{0, 62}, 4, 0); err == nil {
		t.Fatal("misaligned read-back succeeded")
	}
}

func TestFrameBufferBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFrameBuffer(0,0) did not panic")
		}
	}()
	NewFrameBuffer("bad", 0, 10, 0)
}
