package dma

import (
	"bytes"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/bus"
	"shrimp/internal/device"
	"shrimp/internal/mem"
	"shrimp/internal/raceflag"
	"shrimp/internal/sim"
)

func fill(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7) + seed
	}
	return out
}

// TestMemToDevDevicesKeepNoView: a memory→device transfer lends the
// device a view of RAM, so a device that keeps the bytes must copy
// them. Rewriting the source after completion leaves every storage
// device's contents as they were at the transfer.
func TestMemToDevDevicesKeepNoView(t *testing.T) {
	clock := sim.NewClock()
	costs := &sim.CostModel{CPUHz: 60e6, DMAStartup: 10, DMABytesPerCyc: 2}
	ram := mem.NewPhysical(16)
	devmap := device.NewMap()
	devs := []struct {
		dev  device.Device
		page uint32
	}{
		{device.NewBuffer("buf", 1, 0, 0), 0},
		{device.NewDisk("disk", 2, 5, 50), 4},
		{device.NewFrameBuffer("fb", 32, 32, 20), 8},
	}
	for _, d := range devs {
		if err := devmap.Attach(d.dev, d.page); err != nil {
			t.Fatal(err)
		}
	}
	eng := New(clock, costs, bus.New(clock, costs), ram, devmap)
	const src = addr.PAddr(3 << addr.PageShift)
	for i, d := range devs {
		want := fill(addr.PageSize, byte(i+1))
		if err := ram.Write(src, want); err != nil {
			t.Fatal(err)
		}
		if err := eng.Start(src, addr.DevProxy(d.page, 0), addr.PageSize); err != nil {
			t.Fatal(err)
		}
		clock.RunUntilIdle()
		if err := ram.Write(src, fill(addr.PageSize, 0xA0)); err != nil {
			t.Fatal(err)
		}
		got, err := d.dev.Read(device.DevAddr{}, addr.PageSize, clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: contents followed the source RAM after the transfer", d.dev.Name())
		}
	}
}

// TestStartCompleteAllocs: starting a transfer schedules the engine's
// one prebuilt completion, and completing a memory→device transfer
// lends RAM instead of copying it, so a steady-state transfer allocates
// nothing.
func TestStartCompleteAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	r := newRig(t, 0)
	transfer := func() {
		if err := r.eng.Start(0x2000, addr.DevProxy(1, 0), addr.PageSize); err != nil {
			t.Fatal(err)
		}
		r.clock.RunUntilIdle()
	}
	transfer()
	if allocs := testing.AllocsPerRun(100, transfer); allocs != 0 {
		t.Fatalf("a memory→device transfer allocates %.1f objects, want 0", allocs)
	}
}
