package core

import (
	"bytes"
	"testing"

	"shrimp/internal/addr"
)

func TestTerminateAbortsInFlight(t *testing.T) {
	r := newRig(t, Config{})
	payload := []byte("should never arrive....")
	r.ram.Write(0x5000, payload)
	st := r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x5000), 4096)
	if !st.Initiated() {
		t.Fatal(st)
	}
	n := r.ctl.Terminate()
	if n != 1 {
		t.Fatalf("Terminate discarded %d, want 1", n)
	}
	if r.ctl.State() != Idle {
		t.Fatalf("state after Terminate = %v", r.ctl.State())
	}
	r.clock.RunUntilIdle()
	if got := r.buf.Bytes(0, len(payload)); bytes.Equal(got, payload) {
		t.Fatal("terminated transfer still moved data")
	}
	// The frame must have been released for invariant I4.
	if r.ctl.PageInUse(addr.PFN(0x5000)) {
		t.Fatal("terminated transfer still holds its frame")
	}
	if r.ctl.Stats().Terminations != 1 {
		t.Fatal("termination not counted")
	}
}

func TestTerminateDrainsQueue(t *testing.T) {
	r := newRig(t, Config{QueueDepth: 8})
	for i := 0; i < 4; i++ {
		st := r.initiate(addr.DevProxy(uint32(i), 0), addr.Proxy(addr.PAddr(0x5000+i*0x1000)), 4096)
		if !st.Initiated() {
			t.Fatalf("initiation %d: %v", i, st)
		}
	}
	n := r.ctl.Terminate()
	if n != 4 { // 1 in flight + 3 queued
		t.Fatalf("Terminate discarded %d, want 4", n)
	}
	if len(r.ctl.userQ) != 0 {
		t.Fatalf("queue length %d after Terminate", len(r.ctl.userQ))
	}
	for i := 0; i < 4; i++ {
		if r.ctl.PageInUse(addr.PFN(addr.PAddr(0x5000 + i*0x1000))) {
			t.Fatalf("frame %d still referenced after Terminate", i)
		}
	}
	// The machine is reusable afterward.
	r.ram.Write(0x9000, []byte{42})
	st := r.initiate(addr.DevProxy(0, 128), addr.Proxy(0x9000), 4)
	if !st.Initiated() {
		t.Fatalf("post-Terminate initiation: %v", st)
	}
	r.clock.RunUntilIdle()
	if r.buf.Bytes(128, 1)[0] != 42 {
		t.Fatal("post-Terminate transfer did not complete")
	}
}

func TestTerminateIdleIsNoOp(t *testing.T) {
	r := newRig(t, Config{})
	if n := r.ctl.Terminate(); n != 0 {
		t.Fatalf("idle Terminate discarded %d", n)
	}
	if r.ctl.State() != Idle {
		t.Fatal("state changed")
	}
}

func TestTerminateClearsDestLoadedLatch(t *testing.T) {
	r := newRig(t, Config{})
	r.ctl.Store(addr.DevProxy(0, 0), 64)
	if r.ctl.State() != DestLoaded {
		t.Fatal("latch not set")
	}
	r.ctl.Terminate()
	if r.ctl.State() != Idle {
		t.Fatal("Terminate left the latch occupied")
	}
}
