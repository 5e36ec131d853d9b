package core

import (
	"errors"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/bus"
	"shrimp/internal/device"
	"shrimp/internal/dma"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
)

func faultyRig(cfg Config) (*rig, *device.Faulty) {
	clock := sim.NewClock()
	costs := &sim.CostModel{
		CPUHz: 60e6, DMAStartup: 10, DMABytesPerCyc: 2, LinkBytesPerCyc: 1,
	}
	ram := mem.NewPhysical(64)
	devmap := device.NewMap()
	inner := device.NewBuffer("buf", 16, 0, 0)
	faulty := device.NewFaulty(inner)
	if err := devmap.Attach(faulty, 0); err != nil {
		panic(err)
	}
	eng := dma.New(clock, costs, bus.New(clock, costs), ram, devmap)
	return &rig{clock: clock, ram: ram, buf: inner, eng: eng,
		ctl: New(eng, devmap, clock, cfg)}, faulty
}

func TestValidationRejectionSurfacesInStatus(t *testing.T) {
	r, f := faultyRig(Config{})
	f.RejectNext = 1
	f.RejectBits = device.ErrAlignment
	st := r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x1000), 64)
	if st.Initiated() || st.DeviceErr()&device.ErrAlignment == 0 {
		t.Fatalf("status = %v", st)
	}
	// Machine immediately reusable.
	st = r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x1000), 64)
	if !st.Initiated() {
		t.Fatalf("post-rejection initiation: %v", st)
	}
	rej, _ := f.Injected()
	if rej != 1 {
		t.Fatalf("rejections = %d", rej)
	}
}

func TestCompletionFailureFreesTheEngine(t *testing.T) {
	// A transfer that fails at completion (the paper's "memory system
	// errors") must still return the engine to Idle so the machine
	// keeps working.
	r, f := faultyRig(Config{})
	f.FailNext = 1
	r.ram.Write(0x2000, []byte{1, 2, 3, 4})
	st := r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x2000), 4)
	if !st.Initiated() {
		t.Fatal(st)
	}
	r.clock.RunUntilIdle()
	if r.ctl.State() != Idle {
		t.Fatalf("state after failed completion = %v", r.ctl.State())
	}
	if r.ctl.PageInUse(addr.PFN(0x2000)) {
		t.Fatal("failed transfer still holds its frame (I4 leak)")
	}
	// Next transfer succeeds and delivers.
	st = r.initiate(addr.DevProxy(0, 64), addr.Proxy(0x2000), 4)
	if !st.Initiated() {
		t.Fatal(st)
	}
	r.clock.RunUntilIdle()
	if r.buf.Bytes(64, 1)[0] != 1 {
		t.Fatal("post-failure transfer did not deliver")
	}
}

func TestQueueSurvivesMidstreamFailure(t *testing.T) {
	// With queueing, a completion failure on one request must not stall
	// or corrupt the requests behind it.
	r, f := faultyRig(Config{QueueDepth: 4})
	for i := 0; i < 3; i++ {
		r.ram.Write(addr.PAddr(0x3000+i*0x1000), []byte{byte(10 + i)})
		st := r.initiate(addr.DevProxy(0, uint32(128*i)), addr.Proxy(addr.PAddr(0x3000+i*0x1000)), 4)
		if !st.Initiated() {
			t.Fatalf("initiation %d: %v", i, st)
		}
	}
	// Fail the SECOND transfer's completion (first is already in
	// flight when we arm the injector... arm for the next Write call).
	// At this point transfer 0 has not completed yet; fail it instead —
	// any one of the three demonstrates the property.
	f.FailNext = 1
	r.clock.RunUntilIdle()
	// Exactly one transfer failed; the other two delivered.
	delivered := 0
	for i := 0; i < 3; i++ {
		if r.buf.Bytes(128*i, 1)[0] == byte(10+i) {
			delivered++
		}
	}
	if delivered != 2 {
		t.Fatalf("delivered %d of 3 with one injected failure", delivered)
	}
	if r.ctl.State() != Idle || len(r.ctl.userQ) != 0 {
		t.Fatalf("machine not drained: state=%v queue=%d", r.ctl.State(), len(r.ctl.userQ))
	}
	if !errors.Is(device.ErrInjected, device.ErrInjected) {
		t.Fatal("sentinel comparison broken")
	}
}

func TestEngineReportsCompletionError(t *testing.T) {
	r, f := faultyRig(Config{})
	var got error
	r.eng.OnComplete(func(err error) {
		if err != nil {
			got = err
		}
	})
	f.FailNext = 1
	r.ram.Write(0x2000, []byte{9})
	r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x2000), 4)
	r.clock.RunUntilIdle()
	if !errors.Is(got, device.ErrInjected) {
		t.Fatalf("completion error = %v", got)
	}
	tr, _ := r.eng.Stats()
	if tr != 0 {
		t.Fatalf("failed transfer counted as completed: %d", tr)
	}
}
