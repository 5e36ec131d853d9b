package kernel_test

import (
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/core"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/udmalib"
)

// TestKillBlockedProcess kills a process parked in a long sleep: the
// kill must make it runnable, unwind it promptly, and release every
// frame it owned back to the free list. A second Kill of the corpse is
// a no-op.
func TestKillBlockedProcess(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	baseline := n.Kernel.FreeFrames()

	reached := false
	p := n.Kernel.Spawn("sleeper", func(p *kernel.Proc) {
		va, err := p.Alloc(3 * addr.PageSize)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if err := p.WriteBuf(va, make([]byte, 3*addr.PageSize)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		p.Sleep(1_000_000_000)
		reached = true // the kill must prevent this
	})

	// Let it allocate and block.
	if err := n.Kernel.Run(n.Clock.Now() + 200_000); err != nil {
		t.Fatal(err)
	}
	if p.Exited() || !p.Blocked() {
		t.Fatalf("sleeper not blocked before kill (exited=%v)", p.Exited())
	}
	if n.Kernel.FreeFrames() >= baseline {
		t.Fatal("sleeper owns no frames; the release check would be vacuous")
	}

	n.Kernel.Kill(p)
	if err := n.Kernel.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if !p.Exited() {
		t.Fatal("killed process did not exit")
	}
	if reached {
		t.Fatal("killed process ran past its sleep")
	}
	if got := n.Kernel.FreeFrames(); got != baseline {
		t.Fatalf("free frames after kill: %d, want the %d of before spawn", got, baseline)
	}
	for _, f := range n.Kernel.FrameStates() {
		if f.Used && f.OwnerPID == p.PID() {
			t.Fatalf("dead pid still owns a frame: %+v", f)
		}
	}
	n.Kernel.Kill(p) // corpse: must be a no-op, not a panic
}

// TestKillDefersUDMAHeldFrames kills a process while its queued UDMA
// transfer is still in flight on a slow device. Reap must not free the
// source frame out from under the hardware (invariant I4): the frame is
// parked — counted in ReapDeferrals, still Used — until the transfer
// completes, and only then returns to the free list.
func TestKillDefersUDMAHeldFrames(t *testing.T) {
	const slow = 200_000 // device latency keeps the transfer in flight
	n := machine.New(0, machine.Config{
		UDMA: core.Config{QueueDepth: 2},
	})
	buf := device.NewBuffer("slowbuf", 4, 0, slow)
	n.AttachDevice(buf, 0)
	t.Cleanup(n.Kernel.Shutdown)
	baseline := n.Kernel.FreeFrames()

	p := n.Kernel.Spawn("sender", func(p *kernel.Proc) {
		d, err := udmalib.Open(p, buf, true)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		va, err := p.Alloc(addr.PageSize)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if err := p.WriteBuf(va, make([]byte, addr.PageSize)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		// Synchronous: the process polls for completion until killed.
		if err := d.QueuedSend(va, 0, addr.PageSize); err != nil {
			// The kill may surface as an aborted wait; both are fine.
			t.Logf("queued send ended with: %v", err)
		}
	})

	// Run until the transfer is initiated but nowhere near complete.
	for i := 0; i < 200 && n.UDMA.Stats().Initiations == 0; i++ {
		if err := n.Kernel.Run(n.Clock.Now() + 2_000); err != nil {
			t.Fatal(err)
		}
	}
	if n.UDMA.Stats().Initiations == 0 {
		t.Fatal("transfer never initiated")
	}

	n.Kernel.Kill(p)
	if err := n.Kernel.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if !p.Exited() {
		t.Fatal("killed process did not exit")
	}

	// The transfer is still in flight: its source frame must have been
	// parked, not freed.
	if got := n.Kernel.Stats().ReapDeferrals; got == 0 {
		t.Fatal("no reap deferral recorded for the in-flight frame")
	}
	parked := 0
	for _, f := range n.Kernel.FrameStates() {
		if f.Parked {
			if !f.Used {
				t.Fatalf("parked frame not marked used: %+v", f)
			}
			parked++
		}
	}
	if parked == 0 {
		t.Fatal("no frame parked while the transfer holds it")
	}
	if n.Kernel.FreeFrames() == baseline {
		t.Fatal("every frame freed while the hardware still references one")
	}

	// Completion fires the engine interrupt; the drain hands the parked
	// frames back.
	n.Clock.RunUntilIdle()
	if got := n.Kernel.FreeFrames(); got != baseline {
		t.Fatalf("free frames after drain: %d, want %d", got, baseline)
	}
	for _, f := range n.Kernel.FrameStates() {
		if f.Parked {
			t.Fatalf("frame still parked after completion: %+v", f)
		}
	}
}

// TestKillInsideStoreChargeStartsNoTransfer lands a kill event inside
// the charge of the STORE half of an initiation sequence. The process
// must unwind at the end of that charge: the initiating LOAD after it
// never reaches the controller, so no transfer starts.
func TestKillInsideStoreChargeStartsNoTransfer(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	var initiations uint64
	after := false
	p := n.Kernel.Spawn("sender", func(p *kernel.Proc) {
		d, err := udmalib.Open(p, buf, true)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		va, err := p.Alloc(addr.PageSize)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if err := p.WriteBuf(va, make([]byte, addr.PageSize)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		// A first send warms both proxy mappings, so the STORE below
		// hits the TLB and its one charge is the uncached reference.
		if err := d.Send(va, 0, addr.PageSize); err != nil {
			t.Errorf("warm-up send: %v", err)
			return
		}
		initiations = n.UDMA.Stats().Initiations
		n.Clock.Schedule(p.Now()+1, func() { n.Kernel.Kill(p) })
		p.Store(d.Base(), addr.PageSize)
		after = true // the kill must stop the process before this
		p.Load(addr.VProxy(va))
	})
	run(t, n)
	if !p.Exited() {
		t.Fatal("killed process did not exit")
	}
	if after {
		t.Fatal("the process ran past the charge in which the kill fired")
	}
	if got := n.UDMA.Stats().Initiations; got != initiations {
		t.Fatalf("initiations %d after the kill, want the %d of before", got, initiations)
	}
	if n.Engine.Busy() {
		t.Fatal("a transfer started after the kill")
	}
}
