// Package telemetry is the simulator's observability layer: a metrics
// registry of counters, gauges and log-bucketed latency histograms, all
// keyed by name and small label sets, plus the list of per-node event
// tracers (internal/trace) that WriteChromeTrace exports to Perfetto.
//
// Counters are pulled, gauges and histograms are pushed. Every layer
// already counts its events in its own Stats; a counter is a read of
// one of those fields, registered once at attach time with
// Scope.CounterFunc and evaluated when a Snapshot is taken. An event is
// therefore counted exactly once, and counting costs nothing at record
// time. Gauges (live levels with a high-water mark) and histograms
// (distributions) hold state no Stats keeps, so layers record into them
// as events happen.
//
// Four properties are load-bearing and guarded by tests:
//
//   - Pure observer. Recording reads the simulated clock but never
//     advances it, schedules no events, and consumes no randomness, so
//     a run with telemetry enabled is byte-identical to the same run
//     with it disabled (see internal/cluster's determinism-under-
//     observation test). A metric that perturbed timing would invalidate
//     every number it reported.
//
//   - Free when disabled. Like trace.Tracer, every pushed instrument is
//     nil-safe: components hold possibly-nil *Gauge/*Histogram pointers
//     resolved once at attach time, and a nil receiver is a no-op. A nil
//     scope registers no counter funcs. The hot paths pay one nil check
//     per gauge or histogram record point and nothing per counted event.
//
//   - Safe under concurrent scopes. When internal/cluster runs nodes on
//     parallel workers, each node records through its own per-node
//     scope into the shared registry. Gauges and histograms use atomics,
//     and events go to the node's own trace.Tracer, which has one writer
//     at a time and needs no lock.
//
//   - Snapshots are taken between windows. A counter func reads plain
//     layer state that a worker writes while its node's window runs, so
//     Snapshot must be called when no window is running: at a barrier
//     or after the run. A snapshot taken there is byte-identical
//     regardless of worker count or goroutine scheduling.
//
// Instruments are identified by a name plus an ordered label set
// ("udma_xfer_latency_cycles{node=0}"). Cycle-valued histograms use the
// _cycles suffix by convention; exporters convert to microseconds with
// the machine's cost model.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"shrimp/internal/trace"
)

// Label is one key=value dimension of an instrument.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Gauge is a point-in-time level (queue depth, bytes outstanding) that
// also tracks its high-water mark. The nil Gauge is a valid "metrics
// off" value: every method on nil is a no-op or reads 0. Add is an
// atomic read-modify-write so concurrent deltas never lose updates; Set
// is a plain store and should only race with itself when callers accept
// last-writer-wins semantics (per-node gauges never share writers).
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// updateMax raises the high-water mark to at least v.
func (g *Gauge) updateMax(v int64) {
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.updateMax(v)
}

// Add moves the level by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.updateMax(g.v.Add(delta))
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark (0 on nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Registry holds every instrument and the listed node tracers. The
// zero value is unusable; call New. A nil *Registry is a valid "metrics
// off" value: every method on nil returns nil instruments or empty
// results. The mutex guards only the instrument maps and tracer list —
// instrument updates themselves are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]func() uint64
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracers  []procTracer
}

// procTracer is one listed tracer and its Perfetto process name.
type procTracer struct {
	proc   string
	tracer *trace.Tracer
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]func() uint64),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// key renders the canonical instrument identity: name{k=v,k=v} with
// labels in the order given (scopes sort once at construction).
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Gauge returns (creating if needed) the gauge with the given identity.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram with the given
// identity.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// AddTracer lists a node's event tracer for WriteChromeTrace under the
// given process name (e.g. "node0"). The node owns the tracer and stamps
// it with its own clock; the registry only lists it. Nil-safe.
func (r *Registry) AddTracer(proc string, t *trace.Tracer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tracers = append(r.tracers, procTracer{proc, t})
	r.mu.Unlock()
}

// procTracers returns the listed tracers in the order they were added.
func (r *Registry) procTracers() []procTracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]procTracer(nil), r.tracers...)
}

// Scope is a registry handle with a pre-bound label set (typically
// node=N). Components register their counters and resolve their gauges
// and histograms once through a scope at attach time; a nil *Scope
// registers nothing and resolves every instrument to nil, so the same
// code path is free when metrics are off.
type Scope struct {
	reg    *Registry
	labels []Label
}

// Scope binds labels (sorted by key for a canonical identity). Nil
// registry returns nil.
func (r *Registry) Scope(labels ...Label) *Scope {
	if r == nil {
		return nil
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return &Scope{reg: r, labels: ls}
}

// Registry returns the underlying registry (nil for a nil scope).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// CounterFunc registers the counter name under the scope's labels as a
// read of layer state: Snapshot calls read and reports what it returns.
// Registering a key again replaces the earlier func. A nil scope
// registers nothing.
func (s *Scope) CounterFunc(name string, read func() uint64) {
	if s == nil {
		return
	}
	k := key(name, s.labels)
	s.reg.mu.Lock()
	s.reg.counters[k] = read
	s.reg.mu.Unlock()
}

// Gauge resolves a gauge under the scope's labels.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.reg.Gauge(name, s.labels...)
}

// Histogram resolves a histogram under the scope's labels.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.reg.Histogram(name, s.labels...)
}

// String renders a scope for diagnostics.
func (s *Scope) String() string {
	if s == nil {
		return "scope(off)"
	}
	return fmt.Sprintf("scope(%s)", key("", s.labels))
}
