package dma

import (
	"bytes"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/bus"
	"shrimp/internal/device"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
)

type rig struct {
	clock  *sim.Clock
	costs  *sim.CostModel
	ram    *mem.Physical
	devmap *device.Map
	buf    *device.Buffer
	eng    *Engine
}

func newRig(t *testing.T, devLatency sim.Cycles) *rig {
	t.Helper()
	clock := sim.NewClock()
	costs := &sim.CostModel{
		CPUHz:           60e6,
		DMAStartup:      10,
		DMABytesPerCyc:  2,
		PIOWordCost:     8,
		LinkBytesPerCyc: 1,
	}
	ram := mem.NewPhysical(16)
	devmap := device.NewMap()
	buf := device.NewBuffer("buf", 4, 0, devLatency)
	if err := devmap.Attach(buf, 0); err != nil {
		t.Fatal(err)
	}
	iobus := bus.New(clock, costs)
	return &rig{
		clock: clock, costs: costs, ram: ram, devmap: devmap, buf: buf,
		eng: New(clock, costs, iobus, ram, devmap),
	}
}

func TestMemToDevTransfer(t *testing.T) {
	r := newRig(t, 0)
	payload := []byte("SHRIMP deliberate update payload")
	if err := r.ram.Write(0x2000, payload); err != nil {
		t.Fatal(err)
	}

	if err := r.eng.Start(0x2000, addr.DevProxy(1, 64), len(payload)); err != nil {
		t.Fatal(err)
	}
	if !r.eng.Busy() {
		t.Fatal("engine not busy after Start")
	}
	// Data must not appear before completion.
	if got := r.buf.Bytes(4096+64, len(payload)); bytes.Equal(got, payload) {
		t.Fatal("data arrived before transfer time elapsed")
	}
	r.clock.RunUntilIdle()
	if r.eng.Busy() {
		t.Fatal("engine busy after completion")
	}
	if got := r.buf.Bytes(4096+64, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("device got %q, want %q", got, payload)
	}
	tr, b := r.eng.Stats()
	if tr != 1 || b != uint64(len(payload)) {
		t.Fatalf("stats = (%d,%d)", tr, b)
	}
}

func TestDevToMemTransfer(t *testing.T) {
	r := newRig(t, 0)
	payload := []byte("incoming packet data")
	r.buf.SetBytes(200, payload)

	if err := r.eng.Start(addr.DevProxy(0, 200), 0x3000, len(payload)); err != nil {
		t.Fatal(err)
	}
	r.clock.RunUntilIdle()
	got, _ := r.ram.Read(0x3000, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatalf("RAM got %q, want %q", got, payload)
	}
}

func TestTransferTiming(t *testing.T) {
	r := newRig(t, 0)
	r.ram.Write(0, make([]byte, 100))
	if err := r.eng.Start(0, addr.DevProxy(0, 0), 100); err != nil {
		t.Fatal(err)
	}
	// 10 startup + 100/2 transfer = 60 cycles.
	if r.eng.doneAt != 60 {
		t.Fatalf("doneAt = %d, want 60", r.eng.doneAt)
	}
	r.clock.Advance(59)
	if !r.eng.Busy() {
		t.Fatal("engine finished early")
	}
	r.clock.Advance(1)
	if r.eng.Busy() {
		t.Fatal("engine still busy at DoneAt")
	}
}

func TestDeviceLatencyAdds(t *testing.T) {
	r := newRig(t, 40)
	r.eng.Start(0, addr.DevProxy(0, 0), 100)
	if r.eng.doneAt != 100 { // 60 bus + 40 device
		t.Fatalf("doneAt = %d, want 100", r.eng.doneAt)
	}
}

func TestCompletionInterrupt(t *testing.T) {
	r := newRig(t, 0)
	var order []string
	var gotErr error = errSentinel
	r.eng.OnComplete(func(err error) { order = append(order, "first"); gotErr = err })
	r.eng.OnComplete(func(err error) { order = append(order, "second") })
	r.eng.Start(0, addr.DevProxy(0, 0), 8)
	r.clock.RunUntilIdle()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("listeners fired %v", order)
	}
	if gotErr != nil {
		t.Fatalf("completion error = %v, want nil", gotErr)
	}
}

var errSentinel = bytes.ErrTooLarge

func TestRegistersReadableWhileBusy(t *testing.T) {
	r := newRig(t, 0)
	src, dst := addr.PAddr(0x1000), addr.DevProxy(2, 0)
	r.eng.Start(src, dst, 256)
	if r.eng.Source() != src || r.eng.Destination() != dst || r.eng.Count() != 256 {
		t.Fatalf("registers = %#x,%#x,%d", uint32(r.eng.Source()), uint32(r.eng.Destination()), r.eng.Count())
	}
}

func TestRemainingInterpolates(t *testing.T) {
	r := newRig(t, 0)
	r.eng.Start(0, addr.DevProxy(0, 0), 100) // done at 60
	if got := r.eng.Remaining(); got != 100 {
		t.Fatalf("Remaining at start = %d, want 100", got)
	}
	r.clock.Advance(30)
	got := r.eng.Remaining()
	if got <= 0 || got >= 100 {
		t.Fatalf("Remaining mid-flight = %d, want in (0,100)", got)
	}
	r.clock.Advance(30)
	if got := r.eng.Remaining(); got != 0 {
		t.Fatalf("Remaining after done = %d, want 0", got)
	}
}

func TestStartWhileBusyRejected(t *testing.T) {
	r := newRig(t, 0)
	if err := r.eng.Start(0, addr.DevProxy(0, 0), 8); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.Start(0x1000, addr.DevProxy(0, 512), 8); err == nil {
		t.Fatal("second Start while busy succeeded")
	}
	r.clock.RunUntilIdle()
	if err := r.eng.Start(0x1000, addr.DevProxy(0, 512), 8); err != nil {
		t.Fatalf("Start after completion failed: %v", err)
	}
}

func TestBadRegionCombinations(t *testing.T) {
	r := newRig(t, 0)
	cases := []struct {
		name     string
		src, dst addr.PAddr
	}{
		{"mem to mem", 0x1000, 0x2000},
		{"dev to dev", addr.DevProxy(0, 0), addr.DevProxy(1, 0)},
		{"proxy-region src", addr.PAddr(addr.MemProxyBase), 0x1000},
		{"kernel dst", 0x1000, addr.PAddr(addr.KernelBase)},
	}
	for _, tc := range cases {
		if err := r.eng.Start(tc.src, tc.dst, 8); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if r.eng.Busy() {
		t.Fatal("engine busy after rejected starts")
	}
}

func TestBadCountRejected(t *testing.T) {
	r := newRig(t, 0)
	for _, n := range []int{0, -4} {
		if err := r.eng.Start(0, addr.DevProxy(0, 0), n); err == nil {
			t.Errorf("count %d accepted", n)
		}
	}
}

func TestOutOfRAMRejected(t *testing.T) {
	r := newRig(t, 0)
	far := addr.PAddr(15*addr.PageSize + 4090)
	if err := r.eng.Start(far, addr.DevProxy(0, 0), 64); err == nil {
		t.Fatal("transfer spanning RAM end accepted")
	}
}

func TestUnmappedDeviceRejected(t *testing.T) {
	r := newRig(t, 0)
	if err := r.eng.Start(0, addr.DevProxy(500, 0), 8); err == nil {
		t.Fatal("transfer to undecoded device page accepted")
	}
}

func TestDeviceValidationRejected(t *testing.T) {
	clock := sim.NewClock()
	costs := &sim.CostModel{CPUHz: 60e6, DMAStartup: 1, DMABytesPerCyc: 1, LinkBytesPerCyc: 1}
	ram := mem.NewPhysical(4)
	devmap := device.NewMap()
	strict := device.NewBuffer("strict", 1, 4, 0)
	devmap.Attach(strict, 0)
	eng := New(clock, costs, bus.New(clock, costs), ram, devmap)

	if err := eng.Start(0, addr.DevProxy(0, 2), 8); err == nil {
		t.Fatal("misaligned transfer accepted")
	}
	if err := eng.Start(0, addr.DevProxy(0, 0), 7); err == nil {
		t.Fatal("misaligned length accepted")
	}
}

func TestAbort(t *testing.T) {
	r := newRig(t, 0)
	fired := false
	r.eng.OnComplete(func(error) { fired = true })
	r.ram.Write(0, []byte{1, 2, 3, 4})
	r.eng.Start(0, addr.DevProxy(0, 0), 4)
	r.eng.Abort()
	if r.eng.Busy() {
		t.Fatal("busy after abort")
	}
	r.clock.RunUntilIdle()
	if fired {
		t.Fatal("completion interrupt fired after abort")
	}
	if got := r.buf.Bytes(0, 4); bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatal("aborted transfer moved data")
	}
	r.eng.Abort() // idle abort is a no-op
}

func TestBackToBackTransfersShareBus(t *testing.T) {
	r := newRig(t, 0)
	r.eng.Start(0, addr.DevProxy(0, 0), 100)
	r.clock.RunUntilIdle()
	first := r.clock.Now()
	r.eng.Start(0, addr.DevProxy(0, 512), 100)
	r.clock.RunUntilIdle()
	if r.clock.Now()-first != 60 {
		t.Fatalf("second transfer took %d cycles, want 60", r.clock.Now()-first)
	}
}

func TestDirectionString(t *testing.T) {
	if MemToDev.String() != "mem→dev" || DevToMem.String() != "dev→mem" {
		t.Fatal("direction strings wrong")
	}
}

func TestNewRequiresDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with nils did not panic")
		}
	}()
	New(nil, nil, nil, nil, nil)
}
