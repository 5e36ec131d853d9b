package bus

import (
	"testing"

	"shrimp/internal/sim"
)

func testBus() (*Bus, *sim.Clock) {
	clock := sim.NewClock()
	costs := &sim.CostModel{
		CPUHz:           60e6,
		DMAStartup:      10,
		DMABytesPerCyc:  2,
		PIOWordCost:     8,
		LinkBytesPerCyc: 1,
	}
	return New(clock, costs), clock
}

func TestBurstTiming(t *testing.T) {
	b, _ := testBus()
	start, end := b.ReserveBurst(0, 100) // 10 startup + 50 transfer
	if start != 0 || end != 60 {
		t.Fatalf("burst = [%d,%d], want [0,60]", start, end)
	}
	if b.BusyUntil() != 60 {
		t.Fatalf("BusyUntil = %d, want 60", b.BusyUntil())
	}
}

func TestBurstsSerialize(t *testing.T) {
	b, _ := testBus()
	_, end1 := b.ReserveBurst(0, 100)
	start2, end2 := b.ReserveBurst(0, 100)
	if start2 != end1 {
		t.Fatalf("second burst started at %d, want %d (after first)", start2, end1)
	}
	if end2 != end1+60 {
		t.Fatalf("second burst ended at %d, want %d", end2, end1+60)
	}
	st := b.Stats()
	if st.Bursts != 2 || st.BurstBytes != 200 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WaitCycles != end1 {
		t.Fatalf("WaitCycles = %d, want %d", st.WaitCycles, end1)
	}
}

func TestBurstAfterBusIdle(t *testing.T) {
	b, _ := testBus()
	b.ReserveBurst(0, 2) // busy [0,11]
	start, _ := b.ReserveBurst(100, 2)
	if start != 100 {
		t.Fatalf("burst requested at 100 started at %d", start)
	}
	if b.Stats().WaitCycles != 0 {
		t.Fatal("no contention expected")
	}
}

func TestZeroByteBurstCostsStartupOnly(t *testing.T) {
	b, _ := testBus()
	start, end := b.ReserveBurst(5, 0)
	if start != 5 || end != 15 {
		t.Fatalf("zero burst = [%d,%d], want [5,15]", start, end)
	}
}

func TestNegativeBurstPanics(t *testing.T) {
	b, _ := testBus()
	defer func() {
		if recover() == nil {
			t.Fatal("negative burst did not panic")
		}
	}()
	b.ReserveBurst(0, -1)
}

func TestPIOWordAdvancesClockAndBus(t *testing.T) {
	b, clock := testBus()
	b.PIOWord()
	if clock.Now() != 8 {
		t.Fatalf("PIO word advanced clock to %d, want 8", clock.Now())
	}
	b.PIOWord()
	if clock.Now() != 16 {
		t.Fatalf("second PIO word: clock %d, want 16", clock.Now())
	}
	if got := b.Stats().PIOWords; got != 2 {
		t.Fatalf("PIOWords = %d, want 2", got)
	}
}

func TestPIOWaitsForBurst(t *testing.T) {
	b, clock := testBus()
	b.ReserveBurst(0, 100) // busy [0,60]
	b.PIOWord()
	if clock.Now() != 68 {
		t.Fatalf("PIO after burst finished at %d, want 68", clock.Now())
	}
	if b.Stats().WaitCycles != 60 {
		t.Fatalf("WaitCycles = %d, want 60", b.Stats().WaitCycles)
	}
}

// TestPIODoesNotOverlapBurstReservedDuringWait is the regression test
// for the double-booking bug: while PIOWord stalls the CPU waiting for
// the bus, AdvanceTo fires due events, and a fired event may reserve a
// fresh burst. The old code captured busyUntil once before the wait and
// then claimed the bus at that stale time, overlapping the new burst.
func TestPIODoesNotOverlapBurstReservedDuringWait(t *testing.T) {
	b, clock := testBus()
	b.ReserveBurst(0, 100) // busy [0,60]
	// Mid-wait, a device completion grabs the bus for another burst the
	// moment the first one ends: busy through [60,120].
	var start2, end2 sim.Cycles
	clock.Schedule(30, func() {
		start2, end2 = b.ReserveBurst(clock.Now(), 100)
	})
	b.PIOWord()
	if start2 != 60 || end2 != 120 {
		t.Fatalf("competing burst = [%d,%d], want [60,120]", start2, end2)
	}
	// The PIO word must queue behind BOTH bursts.
	if clock.Now() != 128 {
		t.Fatalf("PIO word finished at %d, want 128 (after the burst reserved mid-wait)", clock.Now())
	}
	if b.BusyUntil() != 128 {
		t.Fatalf("BusyUntil = %d, want 128", b.BusyUntil())
	}
}

func TestIdle(t *testing.T) {
	b, clock := testBus()
	if !b.Idle() {
		t.Fatal("fresh bus not idle")
	}
	b.ReserveBurst(0, 100)
	if b.Idle() {
		t.Fatal("bus idle during burst")
	}
	clock.Advance(60)
	if !b.Idle() {
		t.Fatal("bus busy after burst end")
	}
}

func TestNewRequiresDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil,nil) did not panic")
		}
	}()
	New(nil, nil)
}
