package sim

import (
	"container/heap"
	"fmt"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock Now() = %d, want 0", c.Now())
	}
	if len(c.heap) != 0 {
		t.Fatalf("new clock holds %d events, want 0", len(c.heap))
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := NewClock()
	c.Advance(100)
	if c.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", c.Now())
	}
	c.Advance(0)
	if c.Now() != 100 {
		t.Fatalf("Advance(0) changed time to %d", c.Now())
	}
}

func TestAdvanceToNeverMovesBackward(t *testing.T) {
	c := NewClock()
	c.Advance(50)
	c.AdvanceTo(10)
	if c.Now() != 50 {
		t.Fatalf("AdvanceTo(past) moved time to %d, want 50", c.Now())
	}
}

func TestEventFiresAtScheduledTime(t *testing.T) {
	c := NewClock()
	var firedAt Cycles
	c.Schedule(42, func() { firedAt = c.Now() })

	c.Advance(41)
	if firedAt != 0 {
		t.Fatalf("event fired early at %d", firedAt)
	}
	c.Advance(1)
	if firedAt != 42 {
		t.Fatalf("event fired at %d, want 42", firedAt)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	c := NewClock()
	var order []string
	c.Schedule(30, func() { order = append(order, "c") })
	c.Schedule(10, func() { order = append(order, "a") })
	c.Schedule(20, func() { order = append(order, "b") })
	c.Advance(100)
	if got := len(order); got != 3 {
		t.Fatalf("fired %d events, want 3", got)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("fire order = %v, want [a b c]", order)
	}
}

func TestEqualTimeEventsFireFIFO(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(5, func() { order = append(order, i) })
	}
	c.Advance(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of order: %v", order)
		}
	}
}

func TestScheduleAfterIsRelative(t *testing.T) {
	c := NewClock()
	c.Advance(100)
	fired := false
	c.ScheduleAfter(10, func() { fired = true })
	c.Advance(9)
	if fired {
		t.Fatal("relative event fired early")
	}
	c.Advance(1)
	if !fired {
		t.Fatal("relative event did not fire at now+10")
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := NewClock()
	fired := false
	ev := c.Schedule(10, func() { fired = true })
	c.Cancel(ev)
	c.Advance(100)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and NoEvent-cancel are no-ops.
	c.Cancel(ev)
	c.Cancel(NoEvent)
}

func TestCancelOneOfMany(t *testing.T) {
	c := NewClock()
	var order []string
	a := c.Schedule(10, func() { order = append(order, "a") })
	c.Schedule(20, func() { order = append(order, "b") })
	c.Schedule(30, func() { order = append(order, "c") })
	c.Cancel(a)
	c.Advance(100)
	if len(order) != 2 || order[0] != "b" || order[1] != "c" {
		t.Fatalf("after cancel, order = %v, want [b c]", order)
	}
}

func TestEventFiringSchedulesEvent(t *testing.T) {
	c := NewClock()
	var times []Cycles
	c.Schedule(10, func() {
		times = append(times, c.Now())
		c.ScheduleAfter(5, func() {
			times = append(times, c.Now())
		})
	})
	c.Advance(100)
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("chained events fired at %v, want [10 15]", times)
	}
}

func TestClockAdvancesToEventTimeBeforeFiring(t *testing.T) {
	c := NewClock()
	var seen Cycles
	c.Schedule(25, func() { seen = c.Now() })
	c.Advance(100)
	if seen != 25 {
		t.Fatalf("event observed Now()=%d, want 25", seen)
	}
	if c.Now() != 100 {
		t.Fatalf("final Now()=%d, want 100", c.Now())
	}
}

func TestRunUntilIdle(t *testing.T) {
	c := NewClock()
	count := 0
	c.Schedule(10, func() { count++ })
	c.Schedule(1000, func() {
		count++
		c.ScheduleAfter(1, func() { count++ })
	})
	n := c.RunUntilIdle()
	if n != 3 || count != 3 {
		t.Fatalf("RunUntilIdle fired %d (count %d), want 3", n, count)
	}
	if c.Now() != 1001 {
		t.Fatalf("Now() after drain = %d, want 1001", c.Now())
	}
}

func TestNextEventAt(t *testing.T) {
	c := NewClock()
	if _, ok := c.NextEventAt(); ok {
		t.Fatal("NextEventAt on empty clock returned ok")
	}
	c.Schedule(77, func() {})
	at, ok := c.NextEventAt()
	if !ok || at != 77 {
		t.Fatalf("NextEventAt = (%d,%v), want (77,true)", at, ok)
	}
}

func TestScheduleNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	NewClock().Schedule(1, nil)
}

// Property: for any set of scheduled times, events fire in nondecreasing
// time order and the clock never runs backward.
func TestEventOrderProperty(t *testing.T) {
	prop := func(deltas []uint16) bool {
		c := NewClock()
		var fired []Cycles
		for _, d := range deltas {
			at := Cycles(d)
			c.Schedule(at, func() { fired = append(fired, c.Now()) })
		}
		c.RunUntilIdle()
		if len(fired) != len(deltas) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventCancelsAnotherWhileFiring(t *testing.T) {
	// A firing event may cancel a later pending event; the heap must
	// stay consistent and the cancelled event must not fire.
	c := NewClock()
	var later Handle
	fired := []string{}
	c.Schedule(10, func() {
		fired = append(fired, "first")
		c.Cancel(later)
	})
	later = c.Schedule(20, func() { fired = append(fired, "later") })
	c.Schedule(30, func() { fired = append(fired, "third") })
	c.RunUntilIdle()
	if len(fired) != 2 || fired[0] != "first" || fired[1] != "third" {
		t.Fatalf("fired %v, want [first third]", fired)
	}
}

func TestEventReschedulesItselfBounded(t *testing.T) {
	c := NewClock()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			c.ScheduleAfter(10, tick)
		}
	}
	c.ScheduleAfter(10, tick)
	c.RunUntilIdle()
	if count != 5 || c.Now() != 50 {
		t.Fatalf("count=%d now=%d, want 5 at 50", count, c.Now())
	}
}

func TestClockString(t *testing.T) {
	c := NewClock()
	c.Schedule(5, func() {})
	c.Advance(3)
	if got := c.String(); got != "clock(now=3, pending=1)" {
		t.Fatalf("String() = %q", got)
	}
}

// TestCancelStaleHandleIsNoOp cancels handles whose events already
// fired or were cancelled, after their slab slots were reused by later
// events: the later events must still fire.
func TestCancelStaleHandleIsNoOp(t *testing.T) {
	c := NewClock()
	fired := c.Schedule(1, func() {})
	c.Advance(1)
	cancelled := c.Schedule(5, func() {})
	c.Cancel(cancelled)
	var got []string
	for _, name := range []string{"x", "y"} {
		c.ScheduleAfter(10, func() { got = append(got, name) })
	}
	if len(c.slots) != 2 {
		t.Fatalf("slab holds %d slots, want the 2 the fired and cancelled events released", len(c.slots))
	}
	c.Cancel(fired)
	c.Cancel(cancelled)
	c.Cancel(cancelled)
	if len(c.heap) != 2 {
		t.Fatalf("%d events after stale cancels, want 2", len(c.heap))
	}
	c.Advance(100)
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("fired %v, want [x y]", got)
	}
}

// TestReleasedSlotRetainsNoCallback checks that a fired or cancelled
// event's slot drops its callback, so the slab keeps no garbage alive.
func TestReleasedSlotRetainsNoCallback(t *testing.T) {
	c := NewClock()
	c.Schedule(1, func() {})
	c.Cancel(c.Schedule(2, func() {}))
	c.Advance(10)
	for i, ev := range c.slots {
		if ev.fire != nil || ev.pos != -1 {
			t.Fatalf("released slot %d still holds %+v", i, ev)
		}
	}
}

// refEvent and refQueue are an independent reference queue on
// container/heap, ordered by (at, seq) like the clock's.
type refEvent struct {
	at    Cycles
	seq   uint64
	id    int
	index int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	ev.index = -1
	return ev
}

// TestEventSlabMatchesReferenceQueue runs random Schedule, Cancel and
// Advance sequences on the clock and on the reference queue: the fire
// order and the time of every firing must be identical. Cancels pick
// any handle ever issued, so fired, cancelled and recycled ones are
// cancelled too; some events schedule a follow-up when they fire.
func TestEventSlabMatchesReferenceQueue(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := NewRNG(seed)
		c := NewClock()
		var handles []Handle
		var fired []string
		var schedule func(at Cycles, id int)
		schedule = func(at Cycles, id int) {
			handles = append(handles, c.Schedule(at, func() {
				fired = append(fired, fmt.Sprintf("%d@%d", id, c.Now()))
				if id%5 == 0 {
					schedule(c.Now()+Cycles(id%7), -id-1)
				}
			}))
		}

		var ref refQueue
		var refNow Cycles
		var refSeq uint64
		var refEvents []*refEvent
		var want []string
		refSchedule := func(at Cycles, id int) {
			ev := &refEvent{at: at, seq: refSeq, id: id}
			refSeq++
			refEvents = append(refEvents, ev)
			heap.Push(&ref, ev)
		}
		refAdvance := func(to Cycles) {
			for len(ref) > 0 && ref[0].at <= to {
				ev := heap.Pop(&ref).(*refEvent)
				if ev.at > refNow {
					refNow = ev.at
				}
				want = append(want, fmt.Sprintf("%d@%d", ev.id, refNow))
				if ev.id%5 == 0 {
					refSchedule(refNow+Cycles(ev.id%7), -ev.id-1)
				}
			}
			if to > refNow {
				refNow = to
			}
		}

		for op, id := 0, 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				at := c.Now() + Cycles(rng.Intn(50))
				if rng.Intn(8) == 0 {
					at = c.Now() - min(c.Now(), Cycles(rng.Intn(5))) // already due
				}
				schedule(at, id)
				refSchedule(at, id)
				id++
			case r < 7 && len(handles) > 0:
				i := rng.Intn(len(handles))
				c.Cancel(handles[i])
				if ev := refEvents[i]; ev.index >= 0 {
					heap.Remove(&ref, ev.index)
				}
			default:
				d := Cycles(rng.Intn(40))
				c.Advance(d)
				refAdvance(refNow + d)
			}
			if len(c.heap) != len(ref) || c.Now() != refNow {
				t.Fatalf("seed %d op %d: clock at %d with %d pending, reference at %d with %d",
					seed, op, c.Now(), len(c.heap), refNow, len(ref))
			}
		}
		c.RunUntilIdle()
		refAdvance(Forever - 1)
		for i := range max(len(fired), len(want)) {
			if i >= len(fired) || i >= len(want) || fired[i] != want[i] {
				t.Fatalf("seed %d: firing %d diverges: clock %v, reference %v",
					seed, i, fired[i:min(i+3, len(fired))], want[i:min(i+3, len(want))])
			}
		}
	}
}
