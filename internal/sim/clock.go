// Package sim provides the deterministic simulation substrate used by
// every other package in this repository: a cycle-granular clock, an
// event queue for future hardware events (DMA completions, packet
// arrivals), a named cost model, and a seeded random number generator.
//
// All time in the simulator is expressed in CPU cycles of the simulated
// machine. The cost model carries the cycle frequency so results can be
// reported in seconds.
package sim

import (
	"fmt"
	"math"
)

// Cycles is a point in simulated time, or a duration, measured in CPU
// clock cycles of the simulated machine.
type Cycles uint64

// Forever is a sentinel meaning "no deadline".
const Forever Cycles = math.MaxUint64

// Handle names one scheduled event, for Cancel. It packs the event's
// slab slot with that slot's generation, which changes every time the
// slot is released, so a handle goes stale the moment its event fires
// or is cancelled and can never cancel a later event that reuses the
// slot. The zero Handle (NoEvent) names no event.
type Handle uint64

// NoEvent is the zero Handle: Cancel(NoEvent) is a no-op.
const NoEvent Handle = 0

func makeHandle(slot int32, gen uint32) Handle { return Handle(gen)<<32 | Handle(uint32(slot)) }

func (h Handle) slot() int32 { return int32(uint32(h)) }
func (h Handle) gen() uint32 { return uint32(h >> 32) }

// event is one slab slot. A free slot has pos -1 and a nil fire, so the
// slab retains no callback (nor what it captures) after the event goes.
type event struct {
	fire func()
	gen  uint32 // never 0, so no live handle equals NoEvent
	pos  int32  // index in the heap; -1 while the slot is free
}

// entry is one heap element: the ordering key beside the slot index, so
// sifting compares without touching the slab.
type entry struct {
	at   Cycles
	seq  uint64 // tie-break so equal-time events fire in schedule order
	slot int32
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Clock is the single source of simulated time. Components advance it
// as they consume cycles; scheduled events fire as time passes over
// them. Clock is not safe for concurrent use: the simulator is
// deterministic and single-threaded by design (see DESIGN.md §6).
//
// Pending events live in a slab of recycled slots ordered by a min-heap
// of (At, seq) keys, so scheduling, firing and cancelling allocate
// nothing once the slab has grown to the run's peak of pending events.
type Clock struct {
	now   Cycles
	seq   uint64
	heap  []entry
	slots []event
	free  []int32 // released slots, reused last-in first-out
}

// NewClock returns a clock at time zero with no pending events.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current simulated time.
func (c *Clock) Now() Cycles { return c.now }

// Schedule registers fn to run when the clock reaches 'at'. If 'at' is
// in the past it fires on the next Advance (time never moves backward).
// The returned handle may be passed to Cancel.
func (c *Clock) Schedule(at Cycles, fn func()) Handle {
	if fn == nil {
		panic("sim: Schedule with nil func")
	}
	var slot int32
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		slot = int32(len(c.slots))
		c.slots = append(c.slots, event{gen: 1})
	}
	ev := &c.slots[slot]
	ev.fire = fn
	ev.pos = int32(len(c.heap))
	c.heap = append(c.heap, entry{at: at, seq: c.seq, slot: slot})
	c.seq++
	c.up(int(ev.pos))
	return makeHandle(slot, ev.gen)
}

// ScheduleAfter registers fn to run delta cycles from now, saturating
// at Forever rather than wrapping around.
func (c *Clock) ScheduleAfter(delta Cycles, fn func()) Handle {
	at := c.now + delta
	if at < c.now { // overflow
		at = Forever
	}
	return c.Schedule(at, fn)
}

// Cancel removes a pending event. Cancelling NoEvent, or a handle whose
// event already fired or was cancelled, is a no-op.
func (c *Clock) Cancel(h Handle) {
	slot := h.slot()
	if h == NoEvent || int(slot) >= len(c.slots) || c.slots[slot].gen != h.gen() {
		return
	}
	i := int(c.slots[slot].pos)
	last := len(c.heap) - 1
	if i != last {
		c.swap(i, last)
	}
	c.heap = c.heap[:last]
	if i != last && !c.down(i) {
		c.up(i)
	}
	c.release(slot)
}

// Advance moves time forward by delta cycles, firing any events whose
// time is reached, in time order (FIFO among equal times).
func (c *Clock) Advance(delta Cycles) {
	c.AdvanceTo(c.now + delta)
}

// AdvanceTo moves time forward to 'at', firing due events in order.
// Time never moves backward, but a deadline at or before the present
// still fires any events that are already due. Events scheduled by
// fired events are honored if they land within the window.
func (c *Clock) AdvanceTo(at Cycles) {
	if at < c.now {
		at = c.now
	}
	for len(c.heap) > 0 && c.heap[0].at <= at {
		c.fireFirst()
	}
	if at > c.now {
		c.now = at
	}
}

// RunUntilIdle fires all pending events in order, advancing time to
// each, and returns the number fired. Useful for draining in-flight
// hardware activity at the end of a run.
func (c *Clock) RunUntilIdle() int {
	n := 0
	for len(c.heap) > 0 {
		c.fireFirst()
		n++
	}
	return n
}

// fireFirst pops the earliest event, moves time to it and fires it. The
// slot is released before the callback runs, so the callback may
// schedule into it and its own handle is already stale.
func (c *Clock) fireFirst() {
	top := c.heap[0]
	last := len(c.heap) - 1
	if last > 0 {
		c.swap(0, last)
	}
	c.heap = c.heap[:last]
	if last > 0 {
		c.down(0)
	}
	fn := c.slots[top.slot].fire
	c.release(top.slot)
	if top.at > c.now {
		c.now = top.at
	}
	fn()
}

// release returns a slot to the free list under a new generation.
func (c *Clock) release(slot int32) {
	ev := &c.slots[slot]
	ev.fire, ev.pos = nil, -1
	if ev.gen++; ev.gen == 0 {
		ev.gen = 1
	}
	c.free = append(c.free, slot)
}

// NextEventAt returns the time of the earliest pending event and true,
// or (0, false) if none is pending.
func (c *Clock) NextEventAt() (Cycles, bool) {
	if len(c.heap) == 0 {
		return 0, false
	}
	return c.heap[0].at, true
}

// Pending returns the number of scheduled, unfired events.
func (c *Clock) Pending() int { return len(c.heap) }

func (c *Clock) String() string {
	return fmt.Sprintf("clock(now=%d, pending=%d)", c.now, len(c.heap))
}

// swap exchanges two heap elements and records their new positions.
func (c *Clock) swap(i, j int) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	c.slots[h[i].slot].pos = int32(i)
	c.slots[h[j].slot].pos = int32(j)
}

// up sifts element i toward the root.
func (c *Clock) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.heap[i].before(c.heap[parent]) {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

// down sifts element i toward the leaves and reports whether it moved.
func (c *Clock) down(i int) bool {
	start := i
	n := len(c.heap)
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if r := least + 1; r < n && c.heap[r].before(c.heap[least]) {
			least = r
		}
		if !c.heap[least].before(c.heap[i]) {
			break
		}
		c.swap(i, least)
		i = least
	}
	return i > start
}
