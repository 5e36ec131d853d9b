package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// CounterSnap is one counter's rendered state.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge's rendered state.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// HistSnap is one histogram's rendered state, with the percentile
// readout the paper's latency tables are built from. P999 is the
// serving-SLO tail (internal/loadgen's sojourn readout); with few
// samples it degenerates toward the observed max, which is the honest
// answer for a tail nobody sampled.
type HistSnap struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Snapshot is a point-in-time, deterministically ordered rendering of a
// registry: every instrument sorted by canonical name.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// Snapshot renders the registry's current state, calling every counter
// func. Take it between windows or after a run, never while a worker
// runs a node (see the package doc). Nil-safe: a nil registry
// snapshots as empty.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]func() uint64, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.Unlock()
	for k, read := range counters {
		s.Counters = append(s.Counters, CounterSnap{Name: k, Value: read()})
	}
	for k, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: k, Value: g.Value(), Max: g.Max()})
	}
	for k, h := range hists {
		s.Histograms = append(s.Histograms, HistSnap{
			Name: k, Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
			Mean: h.Mean(), P50: h.Quantile(0.50), P90: h.Quantile(0.90),
			P99: h.Quantile(0.99), P999: h.Quantile(0.999),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteText renders the snapshot as aligned human-readable text.
func (s *Snapshot) WriteText(w io.Writer) {
	if len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0 {
		fmt.Fprintln(w, "(no metrics recorded)")
		return
	}
	width := 0
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, g := range s.Gauges {
		if len(g.Name) > width {
			width = len(g.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, c := range s.Counters {
			fmt.Fprintf(w, "  %-*s  %d\n", width, c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "  %-*s  %d (max %d)\n", width, g.Name, g.Value, g.Max)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, h := range s.Histograms {
			fmt.Fprintf(w, "  %-*s  count=%d min=%d p50=%.0f p90=%.0f p99=%.0f p999=%.0f max=%d mean=%.1f\n",
				width, h.Name, h.Count, h.Min, h.P50, h.P90, h.P99, h.P999, h.Max, h.Mean)
		}
	}
}

// WriteJSON renders the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Hist looks up a histogram snapshot by its canonical name, for tests
// and experiment tables.
func (s *Snapshot) Hist(name string) (HistSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistSnap{}, false
}

// Counter looks up a counter snapshot by its canonical name.
func (s *Snapshot) Counter(name string) (CounterSnap, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c, true
		}
	}
	return CounterSnap{}, false
}
