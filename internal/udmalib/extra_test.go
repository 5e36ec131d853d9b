package udmalib_test

import (
	"bytes"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/udmalib"
)

func TestOpenWithoutAttachmentFails(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	stray := device.NewBuffer("stray", 2, 0, 0)
	var err error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		_, err = udmalib.Open(p, stray, true)
	})
	run(t, n)
	if err == nil {
		t.Fatal("Open of unattached device succeeded")
	}
}

func TestBaseReturnsWindowAddress(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	var base addr.VAddr
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, _ := udmalib.Open(p, buf, true)
		base = d.Base()
	})
	run(t, n)
	if addr.VRegionOf(base) != addr.RegionDevProxy {
		t.Fatalf("Base() = %#x, not in device proxy space", uint32(base))
	}
}

func TestStatsAccumulate(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	var st udmalib.Stats
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, _ := udmalib.Open(p, buf, true)
		va, _ := p.Alloc(8192)
		p.WriteBuf(va, pattern(8192))
		d.Send(va, 0, 8192) // 2 pages
		d.Recv(va, 0, 64)   // 1 recv
		st = d.Stats()
	})
	run(t, n)
	if st.Sends != 1 || st.Recvs != 1 {
		t.Fatalf("sends/recvs = %d/%d", st.Sends, st.Recvs)
	}
	if st.Initiations != 3 {
		t.Fatalf("initiations = %d, want 3", st.Initiations)
	}
	if st.Polls == 0 {
		t.Fatal("no completion polls counted")
	}
}

func TestRecvAcrossDevicePages(t *testing.T) {
	// A device→memory transfer whose device range spans device-page
	// boundaries must split there too (the hardware clamps in both
	// spaces; the library continues from REMAINING-BYTES).
	n, buf := newNode(t, machine.Config{})
	payload := pattern(3 * 4096)
	buf.SetBytes(2048, payload)
	var got []byte
	var st udmalib.Stats
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, _ := udmalib.Open(p, buf, true)
		va, _ := p.Alloc(3 * 4096)
		if err := d.Recv(va, 2048, len(payload)); err != nil {
			err2 = err
			return
		}
		st = d.Stats()
		got, err2 = p.ReadBuf(va, len(payload))
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-device-page recv corrupted data")
	}
	// Device offsets 2048..14336: misaligned against the page-aligned
	// memory buffer → two clamps per page pair.
	if st.Initiations < 4 {
		t.Fatalf("initiations = %d, want >= 4 splits", st.Initiations)
	}
}

func TestHardErrorMessage(t *testing.T) {
	he := &udmalib.HardError{Op: "test"}
	if he.Error() == "" {
		t.Fatal("empty error message")
	}
}
