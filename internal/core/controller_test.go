package core

import (
	"bytes"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/bus"
	"shrimp/internal/device"
	"shrimp/internal/dma"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
)

type rig struct {
	clock *sim.Clock
	ram   *mem.Physical
	buf   *device.Buffer
	eng   *dma.Engine
	ctl   *Controller
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	return newRigQuiet(cfg)
}

// newRigQuiet builds a rig without a testing.T (property tests call it
// from inside quick.Check closures).
func newRigQuiet(cfg Config) *rig {
	clock := sim.NewClock()
	costs := &sim.CostModel{
		CPUHz:           60e6,
		DMAStartup:      10,
		DMABytesPerCyc:  2,
		LinkBytesPerCyc: 1,
	}
	ram := mem.NewPhysical(64)
	devmap := device.NewMap()
	buf := device.NewBuffer("buf", 16, 0, 0)
	if err := devmap.Attach(buf, 0); err != nil {
		panic(err)
	}
	eng := dma.New(clock, costs, bus.New(clock, costs), ram, devmap)
	return &rig{clock: clock, ram: ram, buf: buf, eng: eng, ctl: New(eng, devmap, clock, cfg)}
}

// transferCycles returns the engine+bus time for an n-byte transfer on
// this rig's cost model (device latency is zero here).
func (r *rig) transferCycles(n int) sim.Cycles {
	return 10 + sim.Cycles((n+1)/2)
}

// initiate performs the canonical two-instruction sequence: STORE count
// to the destination's proxy address, LOAD from the source's proxy
// address.
func (r *rig) initiate(dstProxy, srcProxy addr.PAddr, count int32) Status {
	r.ctl.Store(dstProxy, count)
	return r.ctl.Load(srcProxy)
}

func TestTwoInstructionMemToDev(t *testing.T) {
	r := newRig(t, Config{})
	payload := []byte("user-level DMA with full protection")
	r.ram.Write(0x5000, payload)

	st := r.initiate(addr.DevProxy(2, 128), addr.Proxy(0x5000), int32(len(payload)))
	if !st.Initiated() {
		t.Fatalf("initiation failed: %v", st)
	}
	if st.Remaining() != len(payload) {
		t.Fatalf("accepted count = %d, want %d", st.Remaining(), len(payload))
	}
	if r.ctl.State() != Transferring {
		t.Fatalf("state = %v, want Transferring", r.ctl.State())
	}
	r.clock.RunUntilIdle()
	if got := r.buf.Bytes(2*4096+128, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("device got %q, want %q", got, payload)
	}
	if r.ctl.State() != Idle {
		t.Fatalf("state after completion = %v, want Idle", r.ctl.State())
	}
}

func TestTwoInstructionDevToMem(t *testing.T) {
	r := newRig(t, Config{})
	payload := []byte("device to any location in memory")
	r.buf.SetBytes(300, payload)

	// STORE names the memory destination, LOAD names the device source.
	st := r.initiate(addr.Proxy(0x7000), addr.DevProxy(0, 300), int32(len(payload)))
	if !st.Initiated() {
		t.Fatalf("initiation failed: %v", st)
	}
	r.clock.RunUntilIdle()
	got, _ := r.ram.Read(0x7000, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatalf("RAM got %q, want %q", got, payload)
	}
}

func TestBadLoadSameRegion(t *testing.T) {
	r := newRig(t, Config{})
	// mem→mem: both proxies in memory proxy space.
	st := r.initiate(addr.Proxy(0x1000), addr.Proxy(0x2000), 64)
	if st.Initiated() || !st.WrongSpace() {
		t.Fatalf("mem→mem: %v, want wrong-space rejection", st)
	}
	if r.ctl.State() != Idle {
		t.Fatalf("state after BadLoad = %v, want Idle", r.ctl.State())
	}
	// dev→dev.
	st = r.initiate(addr.DevProxy(0, 0), addr.DevProxy(1, 0), 64)
	if st.Initiated() || !st.WrongSpace() {
		t.Fatalf("dev→dev: %v, want wrong-space rejection", st)
	}
	if got := r.ctl.Stats().BadLoads; got != 2 {
		t.Fatalf("BadLoads = %d, want 2", got)
	}
}

func TestInvalTerminatesSequence(t *testing.T) {
	r := newRig(t, Config{})
	r.ctl.Store(addr.DevProxy(0, 0), 64)
	if r.ctl.State() != DestLoaded {
		t.Fatalf("state = %v, want DestLoaded", r.ctl.State())
	}
	r.ctl.Store(addr.Proxy(0x1000), -1) // Inval event
	if r.ctl.State() != Idle {
		t.Fatalf("state after Inval = %v, want Idle", r.ctl.State())
	}
	// The victim's LOAD now reports invalid, not an initiation.
	st := r.ctl.Load(addr.Proxy(0x5000))
	if st.Initiated() || !st.Invalid() || !st.Retryable() {
		t.Fatalf("post-Inval load: %v, want retryable invalid", st)
	}
}

func TestInvalHelperEquivalent(t *testing.T) {
	r := newRig(t, Config{})
	r.ctl.Store(addr.DevProxy(0, 0), 64)
	r.ctl.Inval()
	if r.ctl.State() != Idle {
		t.Fatal("Inval() did not reset latch")
	}
	if r.ctl.Stats().Invals != 1 {
		t.Fatal("Inval not counted")
	}
}

func TestStoreOverwritesInDestLoaded(t *testing.T) {
	r := newRig(t, Config{})
	payload := []byte("abcdefgh")
	r.ram.Write(0x3000, payload)
	r.ctl.Store(addr.DevProxy(0, 0), 4)
	r.ctl.Store(addr.DevProxy(0, 512), 8) // overwrite DEST and COUNT
	st := r.ctl.Load(addr.Proxy(0x3000))
	if !st.Initiated() || st.Remaining() != 8 {
		t.Fatalf("after overwrite: %v", st)
	}
	r.clock.RunUntilIdle()
	if got := r.buf.Bytes(512, 8); !bytes.Equal(got, payload) {
		t.Fatalf("device got %q at overwritten destination", got)
	}
	if got := r.buf.Bytes(0, 4); bytes.Equal(got, payload[:4]) {
		t.Fatal("transfer also hit the overwritten destination")
	}
}

func TestLoadWithoutStoreIsStatusPoll(t *testing.T) {
	r := newRig(t, Config{})
	st := r.ctl.Load(addr.Proxy(0x1000))
	if st.Initiated() {
		t.Fatal("bare LOAD initiated a transfer")
	}
	if !st.Invalid() || st.Transferring() {
		t.Fatalf("bare LOAD status: %v, want invalid+idle", st)
	}
}

func TestBusyBasicMachineIgnoresStore(t *testing.T) {
	r := newRig(t, Config{})
	st := r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x1000), 4096)
	if !st.Initiated() {
		t.Fatal(st)
	}
	// Second process tries to initiate while the engine is busy: the
	// Store is ignored, the Load reports transferring, and the caller
	// must retry the whole sequence.
	st2 := r.initiate(addr.DevProxy(1, 0), addr.Proxy(0x2000), 64)
	if st2.Initiated() {
		t.Fatal("initiation succeeded on a busy basic machine")
	}
	if !st2.Transferring() || !st2.Retryable() {
		t.Fatalf("busy status: %v", st2)
	}
	r.clock.RunUntilIdle()
	// Retry succeeds once idle.
	st3 := r.initiate(addr.DevProxy(1, 0), addr.Proxy(0x2000), 64)
	if !st3.Initiated() {
		t.Fatalf("retry after drain failed: %v", st3)
	}
}

func TestCompletionPollingWithMatch(t *testing.T) {
	r := newRig(t, Config{})
	src := addr.Proxy(0x5000)
	st := r.initiate(addr.DevProxy(0, 0), src, 4096)
	if !st.Initiated() {
		t.Fatal(st)
	}
	// Repeat the initiating LOAD: match set while in flight.
	st = r.ctl.Load(src)
	if !st.Match() || !st.Transferring() {
		t.Fatalf("mid-flight poll: %v, want match+transferring", st)
	}
	if st.Remaining() == 0 {
		t.Fatal("mid-flight remaining = 0")
	}
	// A different address must not match.
	if st := r.ctl.Load(addr.Proxy(0x9000)); st.Match() {
		t.Fatalf("unrelated poll matched: %v", st)
	}
	r.clock.RunUntilIdle()
	st = r.ctl.Load(src)
	if st.Match() || st.Transferring() {
		t.Fatalf("post-completion poll: %v, want no match", st)
	}
}

func TestTransferClampedAtSourcePageBoundary(t *testing.T) {
	r := newRig(t, Config{})
	// Source 100 bytes before a page end; ask for 512.
	srcPA := addr.PAddr(0x5000 - 100)
	st := r.initiate(addr.DevProxy(0, 0), addr.Proxy(srcPA), 512)
	if !st.Initiated() {
		t.Fatal(st)
	}
	if st.Remaining() != 100 {
		t.Fatalf("accepted %d bytes, want clamp to 100", st.Remaining())
	}
}

func TestTransferClampedAtDestPageBoundary(t *testing.T) {
	r := newRig(t, Config{})
	st := r.initiate(addr.DevProxy(0, 4096-64), addr.Proxy(0x5000), 512)
	if !st.Initiated() {
		t.Fatal(st)
	}
	if st.Remaining() != 64 {
		t.Fatalf("accepted %d bytes, want clamp to 64", st.Remaining())
	}
}

func TestZeroCountRejected(t *testing.T) {
	r := newRig(t, Config{})
	st := r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x5000), 0)
	if st.Initiated() || st.DeviceErr() == 0 {
		t.Fatalf("zero-byte initiation: %v, want device error", st)
	}
}

func TestDeviceAlignmentErrorReported(t *testing.T) {
	clock := sim.NewClock()
	costs := &sim.CostModel{CPUHz: 60e6, DMAStartup: 1, DMABytesPerCyc: 1, LinkBytesPerCyc: 1}
	ram := mem.NewPhysical(16)
	devmap := device.NewMap()
	strict := device.NewBuffer("strict", 4, 4, 0)
	devmap.Attach(strict, 0)
	eng := dma.New(clock, costs, bus.New(clock, costs), ram, devmap)
	ctl := New(eng, devmap, clock, Config{})

	ctl.Store(addr.DevProxy(0, 2), 64) // misaligned device offset
	st := ctl.Load(addr.Proxy(0x1000))
	if st.Initiated() || st.DeviceErr()&device.ErrAlignment == 0 {
		t.Fatalf("misaligned: %v, want alignment error", st)
	}
	if ctl.State() != Idle {
		t.Fatalf("state after device error = %v, want Idle", ctl.State())
	}
}

func TestUndecodedDevicePageReported(t *testing.T) {
	r := newRig(t, Config{})
	st := r.initiate(addr.DevProxy(4000, 0), addr.Proxy(0x1000), 64)
	if st.Initiated() || st.DeviceErr()&device.ErrBounds == 0 {
		t.Fatalf("undecoded device page: %v", st)
	}
}

func TestRegistersVisibleForI4(t *testing.T) {
	r := newRig(t, Config{})
	r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x5000), 4096)
	src, dst, busy := r.ctl.engine.Source(), r.ctl.engine.Destination(), r.ctl.engine.Busy()
	if !busy || src != 0x5000 || addr.RegionOf(dst) != addr.RegionDevProxy {
		t.Fatalf("Registers = %#x,%#x,%v", uint32(src), uint32(dst), busy)
	}
	if !r.ctl.PageInUse(addr.PFN(0x5000)) {
		t.Fatal("source frame not reported in use")
	}
	if r.ctl.PageInUse(addr.PFN(0x9000)) {
		t.Fatal("unrelated frame reported in use")
	}
	r.clock.RunUntilIdle()
	if r.ctl.PageInUse(addr.PFN(0x5000)) {
		t.Fatal("frame still in use after completion")
	}
}

func TestDestLoadedFrameForI4(t *testing.T) {
	r := newRig(t, Config{})
	if _, ok := r.ctl.DestLoadedFrame(); ok {
		t.Fatal("idle latch reports a frame")
	}
	r.ctl.Store(addr.Proxy(0x6000), 64) // memory destination latched
	pfn, ok := r.ctl.DestLoadedFrame()
	if !ok || pfn != addr.PFN(0x6000) {
		t.Fatalf("DestLoadedFrame = (%d,%v)", pfn, ok)
	}
	r.ctl.Inval()
	if _, ok := r.ctl.DestLoadedFrame(); ok {
		t.Fatal("latch still occupied after Inval")
	}
	// Device destinations are not memory frames.
	r.ctl.Store(addr.DevProxy(0, 0), 64)
	if _, ok := r.ctl.DestLoadedFrame(); ok {
		t.Fatal("device destination reported as a memory frame")
	}
}

func TestQueueAcceptsWhileBusy(t *testing.T) {
	r := newRig(t, Config{QueueDepth: 4})
	for i := 0; i < 3; i++ {
		src := addr.PAddr(0x5000 + i*addr.PageSize)
		r.ram.Write(src, []byte{byte(i + 1)})
		st := r.initiate(addr.DevProxy(0, uint32(i*64)), addr.Proxy(src), 64)
		if !st.Initiated() {
			t.Fatalf("initiation %d failed: %v", i, st)
		}
	}
	if len(r.ctl.userQ) != 2 {
		t.Fatalf("queue length = %d, want 2 (one in flight)", len(r.ctl.userQ))
	}
	r.clock.RunUntilIdle()
	for i := 0; i < 3; i++ {
		if got := r.buf.Bytes(i*64, 1)[0]; got != byte(i+1) {
			t.Fatalf("queued transfer %d wrote %d", i, got)
		}
	}
	if r.ctl.Stats().Completions != 3 {
		t.Fatalf("Completions = %d, want 3", r.ctl.Stats().Completions)
	}
}

func TestQueueFullRefusedAndRetryable(t *testing.T) {
	r := newRig(t, Config{QueueDepth: 1})
	r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x1000), 4096) // in flight
	r.initiate(addr.DevProxy(1, 0), addr.Proxy(0x2000), 4096) // queued
	st := r.initiate(addr.DevProxy(1, 0), addr.Proxy(0x3000), 4096)
	if st.Initiated() || st.DeviceErr()&device.ErrQueueFull == 0 {
		t.Fatalf("queue-full status: %v", st)
	}
	if r.ctl.Stats().QueueFull != 1 {
		t.Fatal("QueueFull not counted")
	}
	// The latch survives a queue-full refusal: once the queue drains a
	// bare LOAD completes the sequence without repeating the STORE.
	r.clock.RunUntilIdle()
	st = r.ctl.Load(addr.Proxy(0x3000))
	if !st.Initiated() {
		t.Fatalf("post-drain LOAD: %v, want initiation", st)
	}
}

func TestQueueMatchCoversQueuedTransfers(t *testing.T) {
	r := newRig(t, Config{QueueDepth: 4})
	last := addr.Proxy(0x8000)
	r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x5000), 4096)
	r.initiate(addr.DevProxy(0, 4096-64), last, 64) // queued
	st := r.ctl.Load(last)
	if !st.Match() {
		t.Fatalf("queued transfer's base did not match: %v", st)
	}
	r.clock.RunUntilIdle()
	if st := r.ctl.Load(last); st.Match() {
		t.Fatalf("match persists after completion: %v", st)
	}
}

func TestQueuePageRefcounts(t *testing.T) {
	r := newRig(t, Config{QueueDepth: 4})
	r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x5000), 4096)
	r.initiate(addr.DevProxy(1, 0), addr.Proxy(0x5000), 4096) // same frame queued
	if !r.ctl.PageInUse(addr.PFN(0x5000)) {
		t.Fatal("frame with two pending uses not reported")
	}
	// Drain one transfer: still referenced by the queued one.
	at, _ := r.clock.NextEventAt()
	r.clock.AdvanceTo(at)
	if !r.ctl.PageInUse(addr.PFN(0x5000)) {
		t.Fatal("frame released while still queued")
	}
	r.clock.RunUntilIdle()
	if r.ctl.PageInUse(addr.PFN(0x5000)) {
		t.Fatal("frame still referenced after drain")
	}
}

func TestSystemQueuePriority(t *testing.T) {
	r := newRig(t, Config{QueueDepth: 4, SystemQueueDepth: 2})
	// Fill: one in flight, one user queued.
	r.ram.Write(0x5000, []byte{1})
	r.ram.Write(0x6000, []byte{2})
	r.ram.Write(0x7000, []byte{3})
	r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x5000), 64)
	r.initiate(addr.DevProxy(0, 64), addr.Proxy(0x6000), 64)
	// Kernel submits a system transfer; it must run before the queued
	// user transfer.
	ticket := r.ctl.EnqueueSystem(0x7000, addr.DevProxy(0, 128), 64)
	if ticket == nil {
		t.Fatal("EnqueueSystem refused")
	}
	// After the in-flight transfer completes, the system one runs next.
	at, _ := r.clock.NextEventAt()
	r.clock.AdvanceTo(at) // completes first user transfer, starts system
	if got := r.buf.Bytes(128, 1)[0]; got == 2 {
		t.Fatal("user transfer ran before system transfer")
	}
	r.clock.RunUntilIdle()
	if got := r.buf.Bytes(64, 1)[0]; got != 2 {
		t.Fatalf("user transfer never completed: %d", got)
	}
	if got := r.buf.Bytes(128, 1)[0]; got != 3 {
		t.Fatalf("system transfer wrote %d", got)
	}
	if !ticket.Done || ticket.Err != nil {
		t.Fatalf("ticket = %+v", ticket)
	}
}

func TestSystemQueueDisabled(t *testing.T) {
	r := newRig(t, Config{})
	if r.ctl.EnqueueSystem(0x1000, addr.DevProxy(0, 0), 64) != nil {
		t.Fatal("EnqueueSystem succeeded with disabled system queue")
	}
	if r.ctl.SystemQueueAvailable() {
		t.Fatal("SystemQueueAvailable true with depth 0")
	}
}

func TestSystemQueueRunsImmediatelyWhenIdle(t *testing.T) {
	r := newRig(t, Config{SystemQueueDepth: 2})
	r.ram.Write(0x4000, []byte{9})
	ticket := r.ctl.EnqueueSystem(0x4000, addr.DevProxy(0, 0), 64)
	if ticket == nil {
		t.Fatal("EnqueueSystem refused on idle machine")
	}
	r.clock.RunUntilIdle()
	if got := r.buf.Bytes(0, 1)[0]; got != 9 {
		t.Fatalf("system transfer wrote %d", got)
	}
	if !ticket.Done {
		t.Fatal("ticket not completed")
	}
}

func TestStatelessAcrossContextSwitch(t *testing.T) {
	// Section 6: "Once started, a UDMA transfer continues regardless of
	// whether the process that started it is de-scheduled."
	r := newRig(t, Config{})
	payload := []byte("survives descheduling")
	r.ram.Write(0x5000, payload)
	st := r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x5000), int32(len(payload)))
	if !st.Initiated() {
		t.Fatal(st)
	}
	r.ctl.Inval() // context switch fires Inval mid-transfer
	if r.ctl.State() != Transferring {
		t.Fatalf("Inval during Transferring changed state to %v", r.ctl.State())
	}
	r.clock.RunUntilIdle()
	if got := r.buf.Bytes(0, len(payload)); !bytes.Equal(got, payload) {
		t.Fatal("transfer did not survive the context-switch Inval")
	}
}

func TestStatsCounting(t *testing.T) {
	r := newRig(t, Config{})
	r.initiate(addr.DevProxy(0, 0), addr.Proxy(0x1000), 64)
	r.clock.RunUntilIdle()
	r.initiate(addr.Proxy(0x1000), addr.Proxy(0x2000), 64) // BadLoad
	r.ctl.Inval()
	st := r.ctl.Stats()
	if st.Stores != 2 || st.Loads != 2 || st.Invals != 1 ||
		st.Initiations != 1 || st.BadLoads != 1 || st.Completions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNonProxyAddressPanics(t *testing.T) {
	r := newRig(t, Config{})
	for name, fn := range map[string]func(){
		"store": func() { r.ctl.Store(addr.PAddr(0x1000), 64) },
		"load":  func() { r.ctl.Load(addr.PAddr(0x1000)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of non-proxy address did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil...) did not panic")
		}
	}()
	New(nil, nil, nil, Config{})
}

func TestNegativeQueueDepthPanics(t *testing.T) {
	r := newRig(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("negative queue depth did not panic")
		}
	}()
	New(r.eng, device.NewMap(), r.clock, Config{QueueDepth: -1})
}

func TestStateString(t *testing.T) {
	if Idle.String() != "Idle" || DestLoaded.String() != "DestLoaded" ||
		Transferring.String() != "Transferring" {
		t.Fatal("state names wrong")
	}
}
