// Package dma implements the traditional DMA engine of the paper's
// Figure 1: SOURCE, DESTINATION and COUNT registers, a transfer state
// machine that streams data across the I/O bus in burst mode, and a
// completion interrupt. It is used two ways:
//
//   - directly by the kernel's traditional-DMA syscall path (the
//     baseline the paper argues against), and
//   - as the standard engine underneath the UDMA extension in
//     internal/core (paper Figure 4: "the additional hardware is
//     situated between the standard DMA engine and the CPU").
package dma

import (
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/bus"
	"shrimp/internal/device"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
	"shrimp/internal/telemetry"
	"shrimp/internal/trace"
)

// FaultKind classifies why a transfer failed. The kind distinguishes
// conditions the software above can retry or must report: a busy engine
// is transient, a device rejection carries status bits for the user, a
// bus error is the paper's "memory system error that the DMA hardware
// cannot handle transparently".
type FaultKind int

const (
	FaultNone FaultKind = iota
	// FaultBusy: Start was called while a transfer was in flight.
	FaultBusy
	// FaultBadRequest: malformed request (non-positive count, endpoint
	// regions the engine cannot pair).
	FaultBadRequest
	// FaultBusError: a memory endpoint fell outside installed RAM, or
	// RAM refused the access at completion time.
	FaultBusError
	// FaultDeviceReject: the device's CheckTransfer refused the request
	// at Start time (alignment, bounds, invalid entry, read-only).
	FaultDeviceReject
	// FaultDevice: the device failed the data movement at completion
	// time (an injected fault, a broken block, a dead link).
	FaultDevice
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultBusy:
		return "busy"
	case FaultBadRequest:
		return "bad-request"
	case FaultBusError:
		return "bus-error"
	case FaultDeviceReject:
		return "device-reject"
	case FaultDevice:
		return "device-fault"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// TransferError is the typed per-transfer error the engine reports,
// both synchronously from Start and asynchronously through the
// completion interrupt. Callers inspect Kind to decide between retry,
// user-visible status bits, and the kernel's machine-check path.
type TransferError struct {
	Kind     FaultKind
	Stage    string // "start" or "complete"
	Src, Dst addr.PAddr
	Count    int
	Bits     device.ErrBits // device error bits, when the device reported any
	Err      error          // underlying cause, if any
}

func (e *TransferError) Error() string {
	s := fmt.Sprintf("dma: %s %s→%s (%dB) failed at %s",
		e.Kind, fmtAddr(e.Src), fmtAddr(e.Dst), e.Count, e.Stage)
	if e.Bits != 0 {
		s += fmt.Sprintf(": error bits %#x", uint32(e.Bits))
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying cause for errors.Is/As chains (e.g.
// device.ErrInjected from a fault injector).
func (e *TransferError) Unwrap() error { return e.Err }

func fmtAddr(a addr.PAddr) string { return fmt.Sprintf("%#x", uint32(a)) }

// Direction of a transfer relative to memory.
type Direction int

const (
	MemToDev Direction = iota
	DevToMem
)

func (d Direction) String() string {
	if d == DevToMem {
		return "dev→mem"
	}
	return "mem→dev"
}

// Engine is one traditional DMA engine. Exactly one transfer is in
// flight at a time; Start while busy is rejected (the UDMA layer and
// the kernel both check Busy first, but hardware refuses regardless).
type Engine struct {
	clock  *sim.Clock
	costs  *sim.CostModel
	iobus  *bus.Bus
	ram    *mem.Physical
	devmap *device.Map

	// Architectural registers, readable by the kernel for invariant I4.
	src, dst addr.PAddr
	count    int

	busy      bool
	dir       Direction
	startAt   sim.Cycles
	doneAt    sim.Cycles
	doneEvent sim.Handle

	// The in-flight transfer's resolved endpoints. One transfer is in
	// flight at a time, so they live here and Start schedules the one
	// prebuilt completeFn instead of a new closure per transfer.
	dev        device.Device
	da         device.DevAddr
	memA       addr.PAddr
	completeFn func()

	// onComplete is the interrupt line: every registered listener fires
	// at completion time (UDMA state machine, kernel interrupt handler).
	onComplete []func(err error)

	transfers   uint64
	bytes       uint64
	failures    uint64
	failedBytes uint64

	tracer *trace.Tracer // nil = tracing off
	m      engineMetrics
}

// engineMetrics holds the engine's telemetry histograms (nil no-ops
// until SetMetrics attaches a live scope).
type engineMetrics struct {
	bytes  *telemetry.Histogram
	cycles *telemetry.Histogram
}

// SetMetrics registers the engine's counters and attaches its
// histograms (nil scope disables them).
func (e *Engine) SetMetrics(s *telemetry.Scope) {
	s.CounterFunc("dma_transfers", func() uint64 { return e.transfers })
	s.CounterFunc("dma_failures", func() uint64 { return e.failures })
	e.m = engineMetrics{
		bytes:  s.Histogram("dma_transfer_bytes"),
		cycles: s.Histogram("dma_transfer_cycles"),
	}
}

// SetTracer attaches an event tracer (nil disables tracing).
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

// New wires an engine to its node's clock, bus, RAM and device map.
func New(clock *sim.Clock, costs *sim.CostModel, iobus *bus.Bus, ram *mem.Physical, devmap *device.Map) *Engine {
	if clock == nil || costs == nil || iobus == nil || ram == nil || devmap == nil {
		panic("dma: New requires non-nil dependencies")
	}
	e := &Engine{clock: clock, costs: costs, iobus: iobus, ram: ram, devmap: devmap}
	e.completeFn = e.complete
	return e
}

// OnComplete registers an interrupt listener invoked (in registration
// order) when each transfer finishes. The error is non-nil if the
// transfer aborted (bus error, device rejection).
func (e *Engine) OnComplete(fn func(err error)) {
	e.onComplete = append(e.onComplete, fn)
}

// Busy reports whether a transfer is in flight.
func (e *Engine) Busy() bool { return e.busy }

// Source returns the SOURCE register (valid while busy; kernels read it
// for invariant I4's remap check).
func (e *Engine) Source() addr.PAddr { return e.src }

// Destination returns the DESTINATION register.
func (e *Engine) Destination() addr.PAddr { return e.dst }

// Count returns the COUNT register as programmed.
func (e *Engine) Count() int { return e.count }

// Remaining estimates the bytes not yet transferred at the current
// time, interpolating linearly over the burst (this feeds the
// REMAINING-BYTES field of the UDMA status word). Zero when idle.
func (e *Engine) Remaining() int {
	if !e.busy {
		return 0
	}
	now := e.clock.Now()
	if now >= e.doneAt {
		return 0
	}
	if now <= e.startAt {
		return e.count
	}
	total := float64(e.doneAt - e.startAt)
	left := float64(e.doneAt-now) / total
	return int(float64(e.count) * left)
}

// Stats returns the number of completed transfers and bytes moved.
func (e *Engine) Stats() (transfers, bytes uint64) { return e.transfers, e.bytes }

// FailStats returns the number of failed transfers and the bytes they
// would have moved.
func (e *Engine) FailStats() (failures, failedBytes uint64) { return e.failures, e.failedBytes }

// Start programs the registers and begins a transfer. Exactly one of
// src/dst must be a real-memory address and the other a device-proxy
// address; the direction is inferred. The transfer occupies the I/O
// bus in burst mode and completes asynchronously: data moves and the
// completion interrupt fires when the simulated clock reaches the
// transfer's end time.
//
// Start validates against the device (alignment, bounds) before
// accepting; a rejected transfer leaves the engine idle.
func (e *Engine) Start(src, dst addr.PAddr, count int) error {
	startErr := func(kind FaultKind, bits device.ErrBits, cause error) *TransferError {
		return &TransferError{Kind: kind, Stage: "start", Src: src, Dst: dst,
			Count: count, Bits: bits, Err: cause}
	}
	if e.busy {
		return startErr(FaultBusy, 0, fmt.Errorf("engine busy until cycle %d", e.doneAt))
	}
	if count <= 0 {
		return startErr(FaultBadRequest, 0, fmt.Errorf("byte count %d must be positive", count))
	}

	srcR, dstR := addr.RegionOf(src), addr.RegionOf(dst)
	var dir Direction
	switch {
	case srcR == addr.RegionMemory && dstR == addr.RegionDevProxy:
		dir = MemToDev
	case srcR == addr.RegionDevProxy && dstR == addr.RegionMemory:
		dir = DevToMem
	default:
		return startErr(FaultBadRequest, 0, fmt.Errorf("unsupported transfer %s → %s", srcR, dstR))
	}

	memA, devA := src, dst
	if dir == DevToMem {
		memA, devA = dst, src
	}
	if !e.ram.Contains(memA, count) {
		return startErr(FaultBusError, 0, fmt.Errorf("memory range [%#x,+%d) outside RAM", uint32(memA), count))
	}
	dev, da, ok := e.devmap.Resolve(devA)
	if !ok {
		return startErr(FaultDeviceReject, device.ErrBounds, fmt.Errorf("no device decodes %#x", uint32(devA)))
	}
	if bits := dev.CheckTransfer(da, count, dir == MemToDev); bits != 0 {
		return startErr(FaultDeviceReject, bits, fmt.Errorf("device %s rejected transfer", dev.Name()))
	}

	e.src, e.dst, e.count, e.dir = src, dst, count, dir
	e.dev, e.da, e.memA = dev, da, memA
	e.busy = true

	devLat := dev.TransferLatency(da, count)
	start, end := e.iobus.ReserveBurst(e.clock.Now(), count)
	e.startAt = start
	e.doneAt = end + devLat

	e.doneEvent = e.clock.Schedule(e.doneAt, e.completeFn)
	return nil
}

// complete moves the data and fires the interrupt. Runs at doneAt.
// A memory→device transfer lends the device a view of the source RAM
// (see device.Device.Write), so the engine itself copies nothing.
func (e *Engine) complete() {
	dev, da, memA, count := e.dev, e.da, e.memA, e.count
	// A completion-time failure is classified by which side of the bus
	// refused: RAM errors are bus errors, device errors are device
	// faults. Both are wrapped as a TransferError so listeners see one
	// typed shape on the interrupt line.
	var err error
	kind := FaultNone
	switch e.dir {
	case MemToDev:
		var data []byte
		if data, err = e.ram.View(memA, count); err != nil {
			kind = FaultBusError
		} else if err = dev.Write(da, data, e.clock.Now()); err != nil {
			kind = FaultDevice
		}
	case DevToMem:
		var data []byte
		if data, err = dev.Read(da, count, e.clock.Now()); err != nil {
			kind = FaultDevice
		} else if err = e.ram.Write(memA, data); err != nil {
			kind = FaultBusError
		}
	}
	e.busy = false
	e.doneEvent = sim.NoEvent
	if err == nil {
		e.transfers++
		e.bytes += uint64(count)
	} else {
		e.failures++
		e.failedBytes += uint64(count)
		err = &TransferError{Kind: kind, Stage: "complete", Src: e.src, Dst: e.dst,
			Count: count, Err: err}
	}
	e.m.bytes.Observe(uint64(count))
	e.m.cycles.Observe(uint64(e.clock.Now() - e.startAt))
	e.tracer.Span(trace.EvDMA, e.startAt, uint64(e.src), uint64(e.dst), e.dir.String())
	for _, fn := range e.onComplete {
		fn(err)
	}
}

// Abort cancels an in-flight transfer without moving data or firing the
// completion interrupt. The paper notes a termination mechanism "could
// be useful for dealing with memory system errors"; the kernel also
// uses it in fault-injection tests.
func (e *Engine) Abort() {
	if !e.busy {
		return
	}
	e.clock.Cancel(e.doneEvent)
	e.doneEvent = sim.NoEvent
	e.busy = false
}
