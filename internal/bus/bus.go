// Package bus models the machine's I/O bus as a shared timing resource.
//
// The bus does not move bytes itself (the DMA engine and CPU do); it
// arbitrates *when* they move. DMA bursts serialize with each other —
// there is one EISA bus per node — and programmed-I/O word stores both
// occupy the bus and charge CPU time. This arbitration is what makes
// the burst-vs-PIO comparison of experiment E5 honest: a PIO word
// stream and a competing DMA burst contend here.
package bus

import (
	"fmt"

	"shrimp/internal/sim"
	"shrimp/internal/telemetry"
)

// Bus is one I/O bus. Not safe for concurrent use; the simulator is
// single-threaded.
type Bus struct {
	clock *sim.Clock
	costs *sim.CostModel

	busyUntil sim.Cycles

	burstBytes uint64
	pioWords   uint64
	bursts     uint64
	waitCycles sim.Cycles
	busyCycles sim.Cycles

	wait *telemetry.Histogram // arbitration waits; nil until SetMetrics
}

// SetMetrics registers the bus's counters and attaches its wait
// histogram (nil scope disables them). Recording is a pure
// observation: it never advances the clock.
func (b *Bus) SetMetrics(s *telemetry.Scope) {
	s.CounterFunc("bus_bursts", func() uint64 { return b.bursts })
	s.CounterFunc("bus_burst_bytes", func() uint64 { return b.burstBytes })
	s.CounterFunc("bus_pio_words", func() uint64 { return b.pioWords })
	s.CounterFunc("bus_busy_cycles", func() uint64 { return uint64(b.busyCycles) })
	b.wait = s.Histogram("bus_wait_cycles")
}

// New returns an idle bus on the given clock.
func New(clock *sim.Clock, costs *sim.CostModel) *Bus {
	if clock == nil || costs == nil {
		panic("bus: New requires non-nil clock and costs")
	}
	return &Bus{clock: clock, costs: costs}
}

// ReserveBurst schedules a DMA burst of n bytes that may begin no
// earlier than 'earliest'. The burst waits for any in-progress bus
// activity, then occupies the bus for the engine startup plus the
// burst-mode transfer time. It returns the burst's start and end
// times; the caller schedules its completion event at 'end'.
func (b *Bus) ReserveBurst(earliest sim.Cycles, n int) (start, end sim.Cycles) {
	if n < 0 {
		panic(fmt.Sprintf("bus: ReserveBurst of %d bytes", n))
	}
	start = earliest
	if b.busyUntil > start {
		b.waitCycles += b.busyUntil - start
		b.wait.Observe(uint64(b.busyUntil - start))
		start = b.busyUntil
	} else {
		b.wait.Observe(0)
	}
	end = start + b.costs.DMAStartup + b.costs.DMACycles(n)
	b.busyUntil = end
	b.burstBytes += uint64(n)
	b.bursts++
	b.busyCycles += end - start
	return start, end
}

// PIOWord performs one programmed-I/O word transaction: the CPU is
// stalled for the word cost (charged on the clock) and the bus is
// occupied for the same interval. Returns when the word is on the wire.
func (b *Bus) PIOWord() {
	// AdvanceTo fires due events, and a fired event may itself reserve
	// a DMA burst, pushing busyUntil past the value captured before the
	// wait. Re-check after every advance so the PIO word never overlaps
	// a burst reserved while the CPU was stalled waiting for the bus.
	for b.busyUntil > b.clock.Now() {
		b.waitCycles += b.busyUntil - b.clock.Now()
		b.clock.AdvanceTo(b.busyUntil)
	}
	end := b.clock.Now() + b.costs.PIOWordCost
	b.busyUntil = end
	b.clock.AdvanceTo(end)
	b.pioWords++
	b.busyCycles += b.costs.PIOWordCost
}

// Idle reports whether the bus is free at the current time.
func (b *Bus) Idle() bool { return b.busyUntil <= b.clock.Now() }

// Stats summarizes bus activity.
type Stats struct {
	BurstBytes uint64     // bytes moved by DMA bursts
	Bursts     uint64     // number of DMA bursts
	PIOWords   uint64     // programmed-I/O words
	WaitCycles sim.Cycles // total arbitration wait
	BusyCycles sim.Cycles // cycles the bus was reserved (bursts + PIO words)
}

// Stats returns cumulative counters.
func (b *Bus) Stats() Stats {
	return Stats{
		BurstBytes: b.burstBytes,
		Bursts:     b.bursts,
		PIOWords:   b.pioWords,
		WaitCycles: b.waitCycles,
		BusyCycles: b.busyCycles,
	}
}
