package trace

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"

	"shrimp/internal/sim"
)

func TestRecordAndEvents(t *testing.T) {
	clock := sim.NewClock()
	tr := New(clock, 8)
	tr.Record(EvStore, 0x1000, 64, "")
	clock.Advance(10)
	tr.Record(EvLoad, 0x2000, 0, "poll")

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Kind != EvStore || evs[0].At != 0 || evs[0].A != 0x1000 {
		t.Fatalf("first event %+v", evs[0])
	}
	if evs[1].Kind != EvLoad || evs[1].At != 10 || evs[1].Note != "poll" {
		t.Fatalf("second event %+v", evs[1])
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	clock := sim.NewClock()
	tr := New(clock, 4)
	for i := 0; i < 10; i++ {
		tr.Record(EvStore, uint64(i), 0, "")
		clock.Advance(1)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.A != uint64(6+i) {
			t.Fatalf("ring order wrong: %+v", evs)
		}
	}
}

// TestCountsSurviveRingWrap is the regression test for Counts and
// Summary undercounting after a wrap: they must report lifetime totals,
// while Events holds only the windowed ring contents.
func TestCountsSurviveRingWrap(t *testing.T) {
	clock := sim.NewClock()
	tr := New(clock, 4)
	for i := 0; i < 100; i++ {
		tr.Record(EvStore, uint64(i), 0, "")
	}
	tr.Record(EvInitiation, 0, 0, "")
	tr.Record(EvTransferDone, 0, 0, "")

	counts := tr.Counts()
	if counts[EvStore] != 100 {
		t.Fatalf("lifetime store count = %d, want 100 (wrap lost history)", counts[EvStore])
	}
	if counts[EvInitiation] != 1 || counts[EvTransferDone] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	sum := tr.Summary()
	if !strings.Contains(sum, "store=100") {
		t.Fatalf("summary undercounts after wrap: %q", sum)
	}

	// The window still only holds the newest capacity events.
	evs := tr.Events()
	if len(evs) != 4 || evs[0].Kind != EvStore || evs[1].Kind != EvStore ||
		evs[2].Kind != EvInitiation || evs[3].Kind != EvTransferDone {
		t.Fatalf("window = %+v", evs)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(EvStore, 1, 2, "x") // must not panic
	tr.Span(EvDMA, 0, 1, 2, "x")
	if tr.Events() != nil {
		t.Fatal("nil tracer has events")
	}
	var buf bytes.Buffer
	tr.Dump(&buf)
	if buf.Len() != 0 {
		t.Fatal("nil tracer dumped output")
	}
	if len(tr.Counts()) != 0 {
		t.Fatal("nil tracer has counts")
	}
}

// TestSpanRecordsInterval: a span ends at the current cycle and carries
// its duration; instants and spans share one time-ordered ring and one
// set of lifetime counts.
func TestSpanRecordsInterval(t *testing.T) {
	clock := sim.NewClock()
	tr := New(clock, 8)
	tr.Record(EvInitiation, 0x5000, 0x80000000, "")
	clock.Advance(300)
	tr.Span(EvDMA, 100, 0x5000, 0x80000000, "mem→dev")
	clock.Advance(50)
	tr.Span(EvTransferDone, 0, 0x5000, 0x80000000, "")

	evs := tr.Events()
	if len(evs) != 3 || evs[0].Dur != 0 {
		t.Fatalf("events = %+v", evs)
	}
	if e := evs[1]; e.Kind != EvDMA || e.At != 300 || e.Dur != 200 {
		t.Fatalf("dma span = %+v", e)
	}
	if e := evs[2]; e.Kind != EvTransferDone || e.At != 350 || e.Dur != 350 {
		t.Fatalf("xfer span = %+v", e)
	}
	if !strings.Contains(evs[1].String(), "dur=200") || strings.Contains(evs[0].String(), "dur=") {
		t.Fatalf("rendering: %q / %q", evs[0], evs[1])
	}
	if got := tr.Summary(); got != "initiate=1 xfer-done=1 dma=1" {
		t.Fatalf("summary = %q", got)
	}
}

// TestRingGrowsOnDemand: a large capacity costs nothing up front; the
// ring holds exactly what was recorded until it reaches the capacity.
func TestRingGrowsOnDemand(t *testing.T) {
	tr := New(sim.NewClock(), 1<<20)
	if cap(tr.ring) != 0 {
		t.Fatalf("ring preallocated %d slots", cap(tr.ring))
	}
	for i := 0; i < 5; i++ {
		tr.Record(EvStore, uint64(i), 0, "")
	}
	if evs := tr.Events(); len(evs) != 5 || evs[4].A != 4 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestDumpAndSummary(t *testing.T) {
	tr := New(sim.NewClock(), 16)
	tr.Record(EvInitiation, 0x5000, 0x80000000, "64B")
	tr.Record(EvInitiation, 0x6000, 0x80001000, "")
	tr.Record(EvPacketSend, 1, 4096, "")
	var buf bytes.Buffer
	tr.Dump(&buf)
	out := buf.String()
	if !strings.Contains(out, "initiate") || !strings.Contains(out, "pkt-send") {
		t.Fatalf("dump missing kinds:\n%s", out)
	}
	if !strings.Contains(out, "64B") {
		t.Fatal("dump missing note")
	}
	sum := tr.Summary()
	if !strings.Contains(sum, "initiate=2") || !strings.Contains(sum, "pkt-send=1") {
		t.Fatalf("summary = %q", sum)
	}
	if New(sim.NewClock(), 4).Summary() != "(no events)" {
		t.Fatal("empty summary wrong")
	}
}

func TestKindString(t *testing.T) {
	if EvStore.String() != "store" || EvPacketRecv.String() != "pkt-recv" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestDefaultCapacity(t *testing.T) {
	tr := New(sim.NewClock(), 0)
	for i := 0; i < 2000; i++ {
		tr.Record(EvStore, 0, 0, "")
	}
	if got := len(tr.Events()); got != 1024 {
		t.Fatalf("default capacity held %d", got)
	}
}

func TestNewRequiresClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil, 8)
}

// TestKindsCoverEveryDeclaredKind is the regression test for the
// summary dropping kinds: every constant from EvStore through
// EvDeliveryFail must be named and enumerated by Kinds(), so Summary
// can never silently omit an event class (the fault-recovery kinds
// EvTransferFail and EvMachineCheck were invisible to the old
// hand-maintained list).
func TestKindsCoverEveryDeclaredKind(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != int(EvDeliveryFail)+1 {
		t.Fatalf("Kinds() enumerates %d kinds, want %d", len(kinds), int(EvDeliveryFail)+1)
	}
	for i, k := range kinds {
		if int(k) != i {
			t.Fatalf("Kinds()[%d] = %v (gap or duplicate)", i, k)
		}
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d has no name", i)
		}
	}
}

// TestSummaryIncludesFaultKinds: the new fault-path events show up in
// the per-kind summary.
func TestSummaryIncludesFaultKinds(t *testing.T) {
	tr := New(sim.NewClock(), 8)
	tr.Record(EvTransferFail, 0x4000, 64, "bounds")
	tr.Record(EvTransferFail, 0x5000, 64, "injected")
	tr.Record(EvMachineCheck, 0, 0, "parity")
	sum := tr.Summary()
	if !strings.Contains(sum, "xfer-fail=2") || !strings.Contains(sum, "machine-check=1") {
		t.Fatalf("summary = %q", sum)
	}
	counts := tr.Counts()
	if counts[EvTransferFail] != 2 || counts[EvMachineCheck] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestRecordEveryMatchesRecordLoop: RecordEvery, which writes only the
// events that can survive in the ring, must leave the tracer exactly
// as n Record calls at the same times would — the buffered events, the
// ring position later records continue from, the counts and the
// summary.
func TestRecordEveryMatchesRecordLoop(t *testing.T) {
	cases := []struct {
		name           string
		limit, before  int
		n, step, after uint64
	}{
		{"n=0", 8, 3, 0, 5, 2},
		{"below free space", 8, 3, 4, 5, 2},
		{"exactly the free space", 8, 3, 5, 5, 2},
		{"across a wrap", 8, 6, 5, 7, 3},
		{"after a wrap", 8, 11, 7, 7, 3},
		{"n=limit", 8, 5, 8, 3, 4},
		{"n>limit", 8, 3, 21, 3, 4},
		{"n>limit after a wrap", 8, 13, 50, 1, 9},
		{"growing ring", 300, 10, 100, 2, 5},
		{"growing ring, n>limit", 300, 10, 1000, 2, 5},
		{"empty ring, n>limit", 100, 0, 777, 4, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loopClock, batchClock := sim.NewClock(), sim.NewClock()
			loop, batch := New(loopClock, tc.limit), New(batchClock, tc.limit)
			for i := 0; i < tc.before; i++ {
				loop.Record(EvStore, uint64(i), 1, "before")
				batch.Record(EvStore, uint64(i), 1, "before")
				loopClock.Advance(3)
				batchClock.Advance(3)
			}
			start := loopClock.Now()
			for i := uint64(0); i < tc.n; i++ {
				loop.Record(EvLoad, 0x8000, 0, "")
				loopClock.Advance(sim.Cycles(tc.step))
			}
			batch.RecordEvery(EvLoad, 0x8000, 0, start, sim.Cycles(tc.step), tc.n)
			batchClock.AdvanceTo(loopClock.Now())
			if got, want := batch.Events(), loop.Events(); !slices.Equal(got, want) {
				t.Fatalf("Events after the batch:\n got %v\nwant %v", got, want)
			}
			for i := uint64(0); i < tc.after; i++ {
				loop.Record(EvInitiation, i, 2, "after")
				batch.Record(EvInitiation, i, 2, "after")
			}

			if got, want := batch.Events(), loop.Events(); !slices.Equal(got, want) {
				t.Fatalf("Events after later records:\n got %v\nwant %v", got, want)
			}
			if got, want := batch.Tail(5), loop.Tail(5); !slices.Equal(got, want) {
				t.Fatalf("Tail(5):\n got %v\nwant %v", got, want)
			}
			if got, want := batch.Counts(), loop.Counts(); !maps.Equal(got, want) {
				t.Fatalf("Counts %v, want %v", got, want)
			}
			if got, want := batch.Summary(), loop.Summary(); got != want {
				t.Fatalf("Summary %q, want %q", got, want)
			}
			if batch.next != loop.next || len(batch.ring) != len(loop.ring) || cap(batch.ring) != cap(loop.ring) {
				t.Fatalf("ring next/len/cap %d/%d/%d, want %d/%d/%d", batch.next, len(batch.ring),
					cap(batch.ring), loop.next, len(loop.ring), cap(loop.ring))
			}
		})
	}
}
