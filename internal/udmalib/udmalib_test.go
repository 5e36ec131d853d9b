package udmalib_test

import (
	"bytes"
	"errors"
	"testing"

	"shrimp/internal/core"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/udmalib"
)

func newNode(t *testing.T, cfg machine.Config) (*machine.Node, *device.Buffer) {
	t.Helper()
	n := machine.New(0, cfg)
	buf := device.NewBuffer("buf", 32, 4, 0) // 4-byte alignment like the NIC
	n.AttachDevice(buf, 0)
	t.Cleanup(n.Kernel.Shutdown)
	return n, buf
}

func run(t *testing.T, n *machine.Node) {
	t.Helper()
	if err := n.Kernel.Run(sim.Forever); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + 3)
	}
	return out
}

func TestSendSinglePage(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	payload := pattern(1024)
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, err := udmalib.Open(p, buf, true)
		if err != nil {
			err2 = err
			return
		}
		va, _ := p.Alloc(4096)
		p.WriteBuf(va, payload)
		err2 = d.Send(va, 512, len(payload))
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(buf.Bytes(512, len(payload)), payload) {
		t.Fatal("device contents wrong")
	}
}

func TestSendMultiPageSplits(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	payload := pattern(3 * 4096)
	var err2 error
	var stats udmalib.Stats
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, _ := udmalib.Open(p, buf, true)
		va, _ := p.Alloc(len(payload))
		p.WriteBuf(va, payload)
		err2 = d.Send(va, 0, len(payload))
		stats = d.Stats()
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(buf.Bytes(0, len(payload)), payload) {
		t.Fatal("device contents wrong")
	}
	if stats.Initiations != 3 {
		t.Fatalf("initiations = %d, want 3 (one per page)", stats.Initiations)
	}
	if stats.SplitPages != 2 {
		t.Fatalf("splits = %d, want 2", stats.SplitPages)
	}
}

func TestSendMisalignedOffsetsUseTwoTransfersPerPage(t *testing.T) {
	// Source offset 2048, device offset 0: every 4 KB of payload spans
	// two source pages, so the hardware clamps twice per page pair —
	// the paper's "two transfers per page are needed" case.
	n, buf := newNode(t, machine.Config{})
	payload := pattern(8192)
	var stats udmalib.Stats
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, _ := udmalib.Open(p, buf, true)
		va, _ := p.Alloc(3 * 4096)
		p.WriteBuf(va+2048, payload)
		err2 = d.Send(va+2048, 0, len(payload))
		stats = d.Stats()
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(buf.Bytes(0, len(payload)), payload) {
		t.Fatal("device contents wrong")
	}
	// "If the source and destination addresses are not aligned to the
	// same offset on their respective pages, two transfers per page are
	// needed": 8 KB = 2 pages → 4 transfers (clamps alternate between
	// the source and destination page boundaries, 2 KB each).
	if stats.Initiations != 4 {
		t.Fatalf("initiations = %d, want 4", stats.Initiations)
	}
}

func TestRecvFromDevice(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	payload := pattern(2000)
	buf.SetBytes(100*4, payload) // aligned offset 400
	var got []byte
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, _ := udmalib.Open(p, buf, true)
		va, _ := p.Alloc(4096)
		if err := d.Recv(va, 400, len(payload)); err != nil {
			err2 = err
			return
		}
		got, err2 = p.ReadBuf(va, len(payload))
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("received contents wrong")
	}
}

func TestHardErrorSurfaced(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, _ := udmalib.Open(p, buf, true)
		va, _ := p.Alloc(4096)
		// Misaligned length for a 4-byte-aligned device.
		err2 = d.Send(va+2, 0, 7)
	})
	run(t, n)
	var he *udmalib.HardError
	if !errors.As(err2, &he) {
		t.Fatalf("got %v, want HardError", err2)
	}
	if he.Status.DeviceErr()&device.ErrAlignment == 0 {
		t.Fatalf("status = %v, want alignment error", he.Status)
	}
}

func TestInitiationCostMatchesPaper(t *testing.T) {
	// The two-instruction initiation sequence plus alignment check must
	// cost ≈2.8 µs on the SHRIMP1996 machine (paper Section 8).
	n, buf := newNode(t, machine.Config{})
	var cost sim.Cycles
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, _ := udmalib.Open(p, buf, true)
		va, _ := p.Alloc(4096)
		p.WriteBuf(va, pattern(64))
		// Warm mappings so the measured pass is steady-state.
		d.Send(va, 0, 64)
		start := p.Now()
		d.SendAsync(va, 64, 64)
		cost = p.Now() - start
		d.Wait(0x4000_0000 | va)
	})
	run(t, n)
	us := n.Micros(cost)
	// SendAsync includes library setup; the paper's 2.8 µs covers the
	// initiation path. Setup (320cy=5.3µs) + check+2 refs (2.8µs) ≈ 8µs.
	if us < 2.8 || us > 12 {
		t.Fatalf("initiation path = %.2f µs, want between 2.8 and 12", us)
	}
}

func TestQueuedSendUsesQueue(t *testing.T) {
	n, buf := newNode(t, machine.Config{UDMA: core.Config{QueueDepth: 8}})
	payload := pattern(4 * 4096)
	var err2 error
	var stats udmalib.Stats
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, _ := udmalib.Open(p, buf, true)
		va, _ := p.Alloc(len(payload))
		p.WriteBuf(va, payload)
		err2 = d.QueuedSend(va, 0, len(payload))
		stats = d.Stats()
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(buf.Bytes(0, len(payload)), payload) {
		t.Fatal("device contents wrong")
	}
	if stats.Initiations != 4 {
		t.Fatalf("initiations = %d, want 4", stats.Initiations)
	}
}

func TestQueuedSendHandlesQueueFull(t *testing.T) {
	n, buf := newNode(t, machine.Config{UDMA: core.Config{QueueDepth: 1}})
	payload := pattern(6 * 4096)
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, _ := udmalib.Open(p, buf, true)
		va, _ := p.Alloc(len(payload))
		p.WriteBuf(va, payload)
		err2 = d.QueuedSend(va, 0, len(payload))
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(buf.Bytes(0, len(payload)), payload) {
		t.Fatal("device contents wrong with tiny queue")
	}
}

func TestQueuedSendFasterThanSerialSend(t *testing.T) {
	elapsed := func(queued bool) sim.Cycles {
		cfg := machine.Config{}
		if queued {
			cfg.UDMA = core.Config{QueueDepth: 16}
		}
		n, buf := newNode(t, cfg)
		var took sim.Cycles
		n.Kernel.Spawn("p", func(p *kernel.Proc) {
			d, _ := udmalib.Open(p, buf, true)
			va, _ := p.Alloc(8 * 4096)
			p.WriteBuf(va, pattern(8*4096))
			start := p.Now()
			if queued {
				d.QueuedSend(va, 0, 8*4096)
			} else {
				d.Send(va, 0, 8*4096)
			}
			took = p.Now() - start
		})
		run(t, n)
		return took
	}
	q, s := elapsed(true), elapsed(false)
	if q >= s {
		t.Fatalf("queued send (%d) not faster than serial (%d)", q, s)
	}
}

func TestSendRejectsBadSizes(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	var e1, e2, e3 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		d, _ := udmalib.Open(p, buf, true)
		va, _ := p.Alloc(4096)
		e1 = d.Send(va, 0, 0)
		e2 = d.Send(va, 0, -4)
		e3 = d.QueuedSend(va, 0, 0)
	})
	run(t, n)
	if e1 == nil || e2 == nil {
		t.Fatal("zero/negative sizes accepted")
	}
	if e3 == nil {
		t.Fatal("QueuedSend accepted a zero-byte message")
	}
}

func TestWindowOff(t *testing.T) {
	if udmalib.WindowOff(3, 100) != 3*4096+100 {
		t.Fatal("WindowOff arithmetic wrong")
	}
}
