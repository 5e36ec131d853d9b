// Package machine assembles one simulated SHRIMP node — CPU cost
// model, RAM, swap, MMU+TLB, I/O bus, DMA engine, UDMA controller,
// device map and kernel — and provides the calibrated SHRIMP1996
// configuration used by every experiment.
package machine

import (
	"fmt"
	"strconv"

	"shrimp/internal/bus"
	"shrimp/internal/core"
	"shrimp/internal/device"
	"shrimp/internal/dma"
	"shrimp/internal/kernel"
	"shrimp/internal/mem"
	"shrimp/internal/mmu"
	"shrimp/internal/sim"
	"shrimp/internal/telemetry"
	"shrimp/internal/trace"
)

// SHRIMP1996 returns the cost model calibrated against the paper's
// published measurements: a 60 MHz Pentium Xpress node (16.7 ns/cycle)
// on an EISA I/O bus, attached to an Intel Paragon routing backplane.
//
// Calibration anchors (see EXPERIMENTS.md for the paper-vs-measured
// table):
//   - two uncached proxy references + user-level alignment checking
//     ≈ 2.8 µs (paper Section 8) → UncachedRef = 60 cycles (1 µs per
//     EISA I/O reference) plus library ALU work;
//   - EISA burst mode ≈ 33 MB/s → 0.55 bytes/cycle;
//   - traditional kernel DMA initiation in the hundreds-to-thousands
//     of instructions (Sections 1–2) → syscall/pin/translate costs;
//   - HIPPI-era kernel send overhead ≈ 350 µs is modeled separately in
//     experiment E3 by scaling these kernel costs.
func SHRIMP1996() *sim.CostModel {
	return &sim.CostModel{
		CPUHz: 60e6,

		MemRefHit:         1,
		WriteThroughStore: 10, // ~24 MB/s word-by-word write-through
		TLBMiss:           20,
		UncachedRef:       60, // 1 µs EISA I/O reference
		FaultTrap:         100,
		FaultHandler:      200,

		SyscallEntry:   150,
		SyscallExit:    100,
		ContextSwitch:  300,
		PinPage:        300,
		UnpinPage:      200,
		TranslatePage:  100,
		BuildDescPage:  50,
		CopyPerWord:    3, // ~80 MB/s kernel memcpy
		InterruptEntry: 250,
		MapProxyPage:   150,
		PageInLatency:  300_000, // 5 ms backing store read
		PageCleanCost:  300_000, // 5 ms backing store write

		DMAStartup:     120,  // 2 µs engine arbitration + first word
		DMABytesPerCyc: 0.55, // 33 MB/s EISA burst
		PIOWordCost:    60,   // 1 µs per programmed-I/O word (4 MB/s)

		NIPTLookup:      10,
		PacketHeader:    60,  // 1 µs header assembly
		PacketPerPage:   120, // 2 µs FIFO entry + launch
		LinkBytesPerCyc: 2.9, // ~175 MB/s Paragon backplane link
		LinkLatency:     30,  // 0.5 µs per hop
		RecvDMAStartup:  120,
	}
}

// Config describes one node.
type Config struct {
	// Costs is the machine cost model; nil selects SHRIMP1996.
	Costs *sim.CostModel
	// RAMFrames is installed memory in 4 KB frames (default 256 = 1 MB).
	RAMFrames int
	// TLBEntries sizes the TLB (default 64; 0 legitimately disables
	// caching for the TLB ablation).
	TLBEntries *int
	// NoUDMA builds a traditional-DMA-only node (baseline machine).
	NoUDMA bool
	// UDMA configures the controller (queue depths).
	UDMA core.Config
	// Kernel configures scheduling and bounce buffers.
	Kernel kernel.Config
	// Metrics attaches a telemetry registry; every hardware layer of
	// the node records into it under a node=<id> label, and the node
	// gets an event tracer the registry lists as process "node<id>".
	// Nil (the default) leaves all instruments as free no-ops.
	// Telemetry is a pure observer: enabling it never changes simulated
	// time.
	Metrics *telemetry.Registry
}

// traceCapacity bounds the event ring of the tracer a node builds when
// it has a registry: the newest events are kept.
const traceCapacity = 32768

// Node is one assembled machine.
type Node struct {
	ID     int
	Clock  *sim.Clock
	Costs  *sim.CostModel
	RAM    *mem.Physical
	Swap   *mem.BackingStore
	TLB    *mmu.TLB
	MMU    *mmu.MMU
	Bus    *bus.Bus
	Engine *dma.Engine
	UDMA   *core.Controller // nil when cfg.NoUDMA
	DevMap *device.Map
	Kernel *kernel.Kernel
	// Metrics is the node's telemetry scope (node=<id>); nil when the
	// config carried no registry.
	Metrics *telemetry.Scope
	// Tracer is the node's event tracer: built with a registry, or
	// attached later with SetTracer; nil when tracing is off.
	Tracer *trace.Tracer
}

// New assembles a node. Devices are attached afterward with
// AttachDevice, before the first process touches them.
func New(id int, cfg Config) *Node {
	costs := cfg.Costs
	if costs == nil {
		costs = SHRIMP1996()
	}
	if err := costs.Validate(); err != nil {
		panic(fmt.Sprintf("machine: %v", err))
	}
	frames := cfg.RAMFrames
	if frames == 0 {
		frames = 256
	}
	tlbEntries := 64
	if cfg.TLBEntries != nil {
		tlbEntries = *cfg.TLBEntries
	}
	clock := sim.NewClock()

	n := &Node{
		ID:     id,
		Clock:  clock,
		Costs:  costs,
		RAM:    mem.NewPhysical(frames),
		Swap:   mem.NewBackingStore(),
		TLB:    mmu.NewTLB(tlbEntries),
		DevMap: device.NewMap(),
	}
	n.MMU = mmu.New(n.TLB, clock, costs)
	n.Bus = bus.New(clock, costs)
	n.Engine = dma.New(clock, costs, n.Bus, n.RAM, n.DevMap)
	if !cfg.NoUDMA {
		n.UDMA = core.New(n.Engine, n.DevMap, clock, cfg.UDMA)
	}
	n.Kernel = kernel.New(clock, costs, n.RAM, n.Swap, n.MMU, n.Bus,
		n.Engine, n.UDMA, n.DevMap, cfg.Kernel)
	if cfg.Metrics != nil {
		scope := cfg.Metrics.Scope(telemetry.L("node", strconv.Itoa(id)))
		n.Metrics = scope
		n.Bus.SetMetrics(scope)
		n.Engine.SetMetrics(scope)
		if n.UDMA != nil {
			n.UDMA.SetMetrics(scope)
		}
		n.Kernel.SetMetrics(scope)
		n.SetTracer(trace.New(clock, traceCapacity))
		cfg.Metrics.AddTracer("node"+strconv.Itoa(id), n.Tracer)
	}
	return n
}

// SetTracer makes t the node's tracer and attaches it to the kernel,
// DMA engine and UDMA controller, so a single ring holds the
// interleaved event record (nil disables tracing). Devices with their
// own tracers (the NIC) are attached by the caller.
func (n *Node) SetTracer(t *trace.Tracer) {
	n.Tracer = t
	n.Kernel.SetTracer(t)
	n.Engine.SetTracer(t)
	if n.UDMA != nil {
		n.UDMA.SetTracer(t)
	}
}

// AttachDevice decodes a device's proxy pages starting at firstPage.
func (n *Node) AttachDevice(dev device.Device, firstPage uint32) {
	if err := n.DevMap.Attach(dev, firstPage); err != nil {
		panic(fmt.Sprintf("machine: %v", err))
	}
}

// Micros converts node cycles to microseconds.
func (n *Node) Micros(c sim.Cycles) float64 { return n.Costs.Micros(c) }
