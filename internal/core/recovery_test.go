package core

import (
	"errors"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/device"
)

// TestDequeueRejectionFailsRequestAndStartsNext is the regression test
// for the dequeue-time panic: a queued request that the engine rejects
// when it is popped (validated at enqueue, conditions changed while it
// waited) must fail that request alone and start the one behind it.
func TestDequeueRejectionFailsRequestAndStartsNext(t *testing.T) {
	r, f := faultyRig(Config{QueueDepth: 4})
	for i := 0; i < 3; i++ {
		r.ram.Write(addr.PAddr(0x3000+i*0x1000), []byte{byte(20 + i)})
		st := r.initiate(addr.DevProxy(0, uint32(128*i)), addr.Proxy(addr.PAddr(0x3000+i*0x1000)), 4)
		if !st.Initiated() {
			t.Fatalf("initiation %d: %v", i, st)
		}
	}
	// Armed only now, after every enqueue-time validation passed: the
	// rejection fires inside engine.Start when request #1 is popped at
	// request #0's completion.
	f.RejectNext = 1
	r.clock.RunUntilIdle()

	if got := r.buf.Bytes(0, 1)[0]; got != 20 {
		t.Fatalf("request 0 did not deliver: %d", got)
	}
	if got := r.buf.Bytes(128, 1)[0]; got == 21 {
		t.Fatal("rejected request 1 still moved data")
	}
	if got := r.buf.Bytes(256, 1)[0]; got != 22 {
		t.Fatalf("request 2 behind the rejection did not deliver: %d", got)
	}
	st := r.ctl.Stats()
	if st.DequeueRejects != 1 || st.Failures != 1 {
		t.Fatalf("DequeueRejects=%d Failures=%d, want 1/1", st.DequeueRejects, st.Failures)
	}
	if r.ctl.State() != Idle || len(r.ctl.userQ) != 0 {
		t.Fatalf("machine not drained: state=%v queue=%d", r.ctl.State(), len(r.ctl.userQ))
	}
	for i := 0; i < 3; i++ {
		if r.ctl.PageInUse(addr.PFN(addr.PAddr(0x3000 + i*0x1000))) {
			t.Fatalf("frame %d still referenced (I4 leak)", i)
		}
	}
	// The rejected transfer's base carries the latched error bits,
	// read-to-clear.
	poll := r.ctl.Load(addr.Proxy(0x4000))
	if poll.DeviceErr()&device.ErrBounds == 0 {
		t.Fatalf("poll of rejected base missing error bits: %v", poll)
	}
	if again := r.ctl.Load(addr.Proxy(0x4000)); again.DeviceErr() != 0 {
		t.Fatalf("error latch not cleared by read: %v", again)
	}
	// The surviving transfers' bases never latched anything.
	if poll := r.ctl.Load(addr.Proxy(0x3000)); poll.DeviceErr() != 0 {
		t.Fatalf("clean base reports error: %v", poll)
	}
}

// TestErrorLatchHeldWhileSameBaseStillMatches: a poll must not consume
// the latched error while a later same-base transfer is still in flight
// — the waiter is polling on MATCH and ignoring error bits.
func TestErrorLatchHeldWhileSameBaseStillMatches(t *testing.T) {
	r, f := faultyRig(Config{QueueDepth: 4})
	r.ram.Write(0x3000, []byte{7})
	// Two transfers from the SAME base: the first fails at completion,
	// the second (queued behind) is still matching when we poll.
	st := r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x3000), 4)
	if !st.Initiated() {
		t.Fatal(st)
	}
	st = r.initiate(addr.DevProxy(0, 128), addr.Proxy(0x3000), 4)
	if !st.Initiated() {
		t.Fatal(st)
	}
	f.FailNext = 1 // first completion fails
	// Advance only to the first completion: deliverAt of transfer #2 is
	// still pending, so its base still matches.
	r.clock.Advance(r.transferCycles(4))
	poll := r.ctl.Load(addr.Proxy(0x3000))
	if !poll.Match() {
		t.Skip("second transfer already done on this cost model")
	}
	if poll.DeviceErr() != 0 {
		t.Fatalf("latch consumed while base still matching: %v", poll)
	}
	r.clock.RunUntilIdle()
	poll = r.ctl.Load(addr.Proxy(0x3000))
	if poll.Match() || poll.DeviceErr()&device.ErrTransferFault == 0 {
		t.Fatalf("latched failure not reported once matching stopped: %v", poll)
	}
}

// TestImmediateEngineRejectionSurfacesInStatus is the regression test
// for the immediate-dispatch panic: the device validates the request but
// the engine refuses it (memory endpoint outside installed RAM, which
// only the engine checks). The initiating LOAD must report the error.
func TestImmediateEngineRejectionSurfacesInStatus(t *testing.T) {
	r := newRig(t, Config{})
	// The rig installs 64 frames (0x40000 bytes); 0x41000 is a valid
	// proxy address whose memory target does not exist.
	st := r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x41000), 64)
	if st.Initiated() {
		t.Fatalf("out-of-RAM source initiated: %v", st)
	}
	if st.DeviceErr()&device.ErrTransferFault == 0 {
		t.Fatalf("engine rejection missing error bits: %v", st)
	}
	if r.ctl.State() != Idle {
		t.Fatalf("state = %v, want Idle", r.ctl.State())
	}
	if r.ctl.Stats().DeviceErrors == 0 {
		t.Fatal("rejection not counted")
	}
	// Machine immediately reusable.
	r.ram.Write(0x2000, []byte{5})
	st = r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x2000), 4)
	if !st.Initiated() {
		t.Fatalf("post-rejection initiation: %v", st)
	}
	r.clock.RunUntilIdle()
	if r.buf.Bytes(0, 1)[0] != 5 {
		t.Fatal("post-rejection transfer did not deliver")
	}
}

// TestEnqueueSystemRejectionFailsTicket: an invalid system-queue
// submission would never become startable; the kernel must get a ticket
// already failed, not nil (nil means "queue full, retry later") and not
// a ticket that never completes.
func TestEnqueueSystemRejectionFailsTicket(t *testing.T) {
	r, f := faultyRig(Config{SystemQueueDepth: 2})
	r.ram.Write(0x2000, []byte{1, 2, 3, 4})
	f.RejectNext = 1
	tk := r.ctl.EnqueueSystem(0x2000, addr.DevProxy(0, 0), 4)
	if tk == nil {
		t.Fatal("rejected submission returned nil (retry) instead of a failed ticket")
	}
	if !tk.Done || tk.Err == nil {
		t.Fatalf("ticket = %+v, want Done with error", tk)
	}
	if r.ctl.Stats().Failures != 1 {
		t.Fatalf("Failures = %d", r.ctl.Stats().Failures)
	}
	// The engine is free and the next submission works.
	tk = r.ctl.EnqueueSystem(0x2000, addr.DevProxy(0, 0), 4)
	if tk == nil || tk.Done {
		t.Fatalf("post-rejection submission: %+v", tk)
	}
	r.clock.RunUntilIdle()
	if !tk.Done || tk.Err != nil {
		t.Fatalf("post-rejection completion: %+v", tk)
	}
}

// TestTerminateFailsTicketsAndLatchesError: the machine-check path must
// deliver core.ErrTerminated to every outstanding ticket and latch the
// error for polling users.
func TestTerminateFailsTicketsAndLatchesError(t *testing.T) {
	r := newRig(t, Config{QueueDepth: 4, SystemQueueDepth: 2})
	r.ram.Write(0x5000, []byte{9})
	st := r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x5000), 4096) // user, in flight
	if !st.Initiated() {
		t.Fatal(st)
	}
	tk := r.ctl.EnqueueSystem(0x6000, addr.DevProxy(1, 0), 64) // system, queued
	if tk == nil || tk.Done {
		t.Fatalf("system submission: %+v", tk)
	}
	if n := r.ctl.Terminate(); n != 2 {
		t.Fatalf("Terminate discarded %d, want 2", n)
	}
	if !tk.Done || !errors.Is(tk.Err, ErrTerminated) {
		t.Fatalf("system ticket after Terminate: %+v", tk)
	}
	poll := r.ctl.Load(addr.Proxy(0x5000))
	if poll.DeviceErr()&device.ErrTransferFault == 0 {
		t.Fatalf("terminated user transfer left no latched error: %v", poll)
	}
	if again := r.ctl.Load(addr.Proxy(0x5000)); again.DeviceErr() != 0 {
		t.Fatalf("latch not read-to-clear: %v", again)
	}
	if r.ctl.Stats().Failures != 2 {
		t.Fatalf("Failures = %d, want 2", r.ctl.Stats().Failures)
	}
}

// TestQueueFullStatusReportsOutstandingBytes is the regression test for
// the queue-full status word: REMAINING-BYTES must report the actual
// outstanding work, not the latched count of the refused request.
func TestQueueFullStatusReportsOutstandingBytes(t *testing.T) {
	r := newRig(t, Config{QueueDepth: 1})
	r.ram.Write(0x3000, make([]byte, 8))
	// Fill: one in flight, one queued.
	for i := 0; i < 2; i++ {
		st := r.initiate(addr.DevProxy(0, uint32(512*i)), addr.Proxy(addr.PAddr(0x3000+i*0x1000)), 512)
		if !st.Initiated() {
			t.Fatalf("initiation %d: %v", i, st)
		}
	}
	// Third request of a tiny 8 bytes: refused. The old code echoed the
	// refused request's own count (8); it must instead report what the
	// hardware is still working on — at least the queued 512 bytes.
	st := r.initiate(addr.DevProxy(0, 2048), addr.Proxy(0x5000), 8)
	if st.Initiated() || st.DeviceErr() != device.ErrQueueFull {
		t.Fatalf("queue-full status: %v", st)
	}
	if st.Remaining() < 512 {
		t.Fatalf("queue-full REMAINING-BYTES = %d, want >= 512 (the outstanding work)", st.Remaining())
	}
	want := r.ctl.outstandingBytes()
	if want > remainingMax {
		want = remainingMax
	}
	if st.Remaining() != want {
		t.Fatalf("queue-full REMAINING-BYTES = %d, want %d", st.Remaining(), want)
	}
}

// TestEnqueueSystemCountsInitiations: the stats fix — system-queue
// submissions are initiations too.
func TestEnqueueSystemCountsInitiations(t *testing.T) {
	r := newRig(t, Config{SystemQueueDepth: 2})
	r.ram.Write(0x2000, []byte{1})
	if tk := r.ctl.EnqueueSystem(0x2000, addr.DevProxy(0, 0), 4); tk == nil {
		t.Fatal("submission refused")
	}
	if tk := r.ctl.EnqueueSystem(0x2000, addr.DevProxy(0, 64), 4); tk == nil {
		t.Fatal("queued submission refused")
	}
	if got := r.ctl.Stats().Initiations; got != 2 {
		t.Fatalf("Initiations = %d, want 2", got)
	}
	r.clock.RunUntilIdle()
}
