package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	g := r.Gauge("y")
	h := r.Histogram("z")
	if g != nil || h != nil {
		t.Fatal("nil registry produced live instruments")
	}
	// All nil-instrument operations must be no-ops, not panics.
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	if g.Value() != 0 || g.Max() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram reads nonzero")
	}
	var s *Scope
	if s.Gauge("y") != nil || s.Histogram("z") != nil {
		t.Fatal("nil scope produced live instruments")
	}
	if r.Scope(L("node", "0")) != nil {
		t.Fatal("nil registry produced a scope")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

// TestCounterFuncNilScope: with metrics off a layer's SetMetrics still
// registers its counters, through a nil scope, and that must neither
// panic nor ever call the read func.
func TestCounterFuncNilScope(t *testing.T) {
	var s *Scope
	s.CounterFunc("x", func() uint64 {
		t.Fatal("nil scope called a counter func")
		return 0
	})
}

// TestCounterFuncReadAtSnapshot: a counter is a read of layer state, so
// each snapshot reports the state at snapshot time, not at
// registration.
func TestCounterFuncReadAtSnapshot(t *testing.T) {
	r := New()
	var events uint64 = 1
	r.Scope(L("node", "0")).CounterFunc("events", func() uint64 { return events })
	events = 5
	if c, ok := r.Snapshot().Counter("events{node=0}"); !ok || c.Value != 5 {
		t.Fatalf("first snapshot: %+v ok=%v, want 5", c, ok)
	}
	events += 4
	if c, _ := r.Snapshot().Counter("events{node=0}"); c.Value != 9 {
		t.Fatalf("second snapshot: %d, want 9", c.Value)
	}
}

// TestSnapshotOrder: counters, gauges and histograms each come out
// sorted by canonical name, whatever order they were registered in.
func TestSnapshotOrder(t *testing.T) {
	r := New()
	for _, n := range []string{"2", "0", "1"} {
		s := r.Scope(L("node", n))
		s.CounterFunc("b_count", func() uint64 { return 1 })
		s.CounterFunc("a_count", func() uint64 { return 1 })
		s.Gauge("level").Set(1)
		s.Histogram("lat_cycles").Observe(1)
	}
	snap := r.Snapshot()
	var got []string
	for _, c := range snap.Counters {
		got = append(got, c.Name)
	}
	want := []string{"a_count{node=0}", "a_count{node=1}", "a_count{node=2}",
		"b_count{node=0}", "b_count{node=1}", "b_count{node=2}"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("counter order %v, want %v", got, want)
	}
	for i, g := range snap.Gauges {
		if want := fmt.Sprintf("level{node=%d}", i); g.Name != want {
			t.Fatalf("gauge %d = %s, want %s", i, g.Name, want)
		}
	}
	for i, h := range snap.Histograms {
		if want := fmt.Sprintf("lat_cycles{node=%d}", i); h.Name != want {
			t.Fatalf("histogram %d = %s, want %s", i, h.Name, want)
		}
	}
}

// TestCounterGauge: registering a counter key again replaces the
// earlier func, which keeps republishing (Cluster.PublishRollup)
// idempotent, and labels are part of a counter's identity. A gauge
// keeps its level and high-water mark and resolves to one instrument
// per identity.
func TestCounterGauge(t *testing.T) {
	r := New()
	r.Scope(L("node", "0")).CounterFunc("requests", func() uint64 { return 1 })
	r.Scope(L("node", "0")).CounterFunc("requests", func() uint64 { return 2 })
	r.Scope(L("node", "1")).CounterFunc("requests", func() uint64 { return 3 })
	snap := r.Snapshot()
	if len(snap.Counters) != 2 {
		t.Fatalf("counters = %+v, want two", snap.Counters)
	}
	if c, _ := snap.Counter("requests{node=0}"); c.Value != 2 {
		t.Fatalf("re-registered counter = %d, want 2 (the later func)", c.Value)
	}
	if c, _ := snap.Counter("requests{node=1}"); c.Value != 3 {
		t.Fatalf("labels ignored in identity: node=1 = %d", c.Value)
	}

	g := r.Gauge("depth")
	g.Set(3)
	g.Add(4)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 7 {
		t.Fatalf("gauge value=%d max=%d", g.Value(), g.Max())
	}
	if r.Gauge("depth") != g {
		t.Fatal("gauge identity not stable")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if m := h.Mean(); m < 500 || m > 501 {
		t.Fatalf("mean = %g", m)
	}
	// Log-bucketed quantiles are approximate: within a factor of 2.
	p50 := h.Quantile(0.50)
	if p50 < 250 || p50 > 1000 {
		t.Fatalf("p50 = %g", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 500 || p99 > 1000 {
		t.Fatalf("p99 = %g", p99)
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 1000 {
		t.Fatalf("p0=%g p100=%g", h.Quantile(0), h.Quantile(1))
	}
	// Quantiles never extrapolate past observed extremes.
	var one Histogram
	one.Observe(777)
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		if got := one.Quantile(q); got != 777 {
			t.Fatalf("single-sample quantile(%g) = %g", q, got)
		}
	}
}

// TestHistogramP999TailBucket pins the tail readout the serving SLOs
// depend on: with 1000 samples in a low bucket and a handful of slow
// outliers in a far higher bucket, p999 must land in the outlier
// bucket (p99 must not), and it must stay clamped to the observed max.
func TestHistogramP999TailBucket(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(100) // bucket [64,128)
	}
	for i := 0; i < 2; i++ {
		h.Observe(1 << 20) // the stragglers: bucket [2^20, 2^21)
	}
	p99, p999 := h.Quantile(0.99), h.Quantile(0.999)
	if p99 >= 128 {
		t.Fatalf("p99 = %g, want inside the fast bucket (< 128)", p99)
	}
	if p999 < 1<<20 {
		t.Fatalf("p999 = %g, want inside the tail bucket (>= %d)", p999, 1<<20)
	}
	if max := float64(h.Max()); p999 > max {
		t.Fatalf("p999 = %g extrapolated past observed max %g", p999, max)
	}
	if p999 < p99 {
		t.Fatalf("p999 %g < p99 %g", p999, p99)
	}
}

func TestHistogramZeroAndHuge(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1 << 62)
	if h.Min() != 0 || h.Max() != 1<<62 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if got := h.Quantile(1); got != float64(uint64(1)<<62) {
		t.Fatalf("p100 = %g", got)
	}
}

func TestScopeLabelsSortedCanonical(t *testing.T) {
	r := New()
	a := r.Scope(L("node", "0"), L("dev", "nic"))
	b := r.Scope(L("dev", "nic"), L("node", "0"))
	if a.Gauge("pkts") != b.Gauge("pkts") {
		t.Fatal("label order changed instrument identity")
	}
	a.CounterFunc("pkts", func() uint64 { return 1 })
	b.CounterFunc("pkts", func() uint64 { return 2 })
	snap := r.Snapshot()
	if c, ok := snap.Counter("pkts{dev=nic,node=0}"); !ok || c.Value != 2 || len(snap.Counters) != 1 {
		t.Fatalf("canonical name missing or split by label order: %+v", snap.Counters)
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	r := New()
	s := r.Scope(L("node", "0"))
	s.CounterFunc("bus_pio_words", func() uint64 { return 7 })
	s.Gauge("udma_queue_depth").Set(3)
	h := s.Histogram("udma_xfer_latency_cycles")
	for i := 0; i < 100; i++ {
		h.Observe(uint64(1000 + i))
	}
	snap := r.Snapshot()

	var text bytes.Buffer
	snap.WriteText(&text)
	out := text.String()
	for _, want := range []string{
		"bus_pio_words{node=0}", "udma_queue_depth{node=0}",
		"udma_xfer_latency_cycles{node=0}", "p50=", "p99=", "p999=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, out)
		}
	}

	var jbuf bytes.Buffer
	if err := snap.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(jbuf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	hs, ok := decoded.Hist("udma_xfer_latency_cycles{node=0}")
	if !ok || hs.Count != 100 || hs.P50 <= 0 || hs.P99 <= 0 || hs.P999 <= 0 {
		t.Fatalf("decoded histogram: %+v (ok=%v)", hs, ok)
	}

	var empty bytes.Buffer
	New().Snapshot().WriteText(&empty)
	if !strings.Contains(empty.String(), "no metrics") {
		t.Fatalf("empty snapshot = %q", empty.String())
	}
}
