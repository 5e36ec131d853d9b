package loadgen

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"

	"shrimp/internal/sim"
)

// Sample is one point of a node's queue-depth / NIC-pressure time
// series, taken every sampleEvery cycles.
type Sample struct {
	At           sim.Cycles
	Depth        int    // messages queued on the node, all destinations
	CreditStalls uint64 // NIC lifetime counter at sample time
	Retransmits  uint64
	Done         int // node's cumulative deliveries — the availability curve
}

// ClassSLO is the serving readout for one traffic class.
type ClassSLO struct {
	Class     string
	Offered   int
	Delivered int
	Failed    int
	Bytes     uint64 // delivered payload bytes
	// Sojourn percentiles in cycles: scheduled arrival → send
	// completion, so queueing behind a saturated NIC is counted.
	P50, P99, P999 float64
	MeanSojourn    float64
	MaxSojourn     uint64
}

// Result is one trial's complete SLO readout.
type Result struct {
	Cfg Config

	// Span is the offered interval (first to last scheduled arrival);
	// Elapsed runs from startAt to the last delivery. An unsaturated
	// system keeps Elapsed ≈ Span; past the knee Elapsed stretches.
	Span    sim.Cycles
	Elapsed sim.Cycles

	// OfferedRate is the realized schedule rate (messages per million
	// cycles of Span); AchievedRate is deliveries per million cycles of
	// Elapsed. Their ratio is the saturation signal Knee looks for.
	OfferedRate  float64
	AchievedRate float64

	Messages       int
	Delivered      int
	Failed         int
	DeliveredBytes uint64

	Classes [NumClasses]ClassSLO

	// OrderViolations counts per-flow FIFO breaches observed at serve
	// time — always zero unless the queueing layer is broken.
	OrderViolations int
	MaxQueueDepth   int
	Retries         uint64 // udmalib initiation retries across all servers

	// NIC lifetime aggregates across all nodes, post-drain.
	CreditStalls     uint64
	Retransmits      uint64
	DeliveryFailures uint64

	// NIPT cache aggregates across all nodes (zero when the cache is
	// unbounded and no lookups missed).
	NIPTLookups      uint64
	NIPTHits         uint64
	NIPTMisses       uint64
	NIPTEvictions    uint64
	NIPTRefillCycles uint64

	// Reliability-state reclamation aggregates, and the plan's flow
	// churn (FlowDeaths is schedule data, not simulation output).
	Reclaims      uint64
	Resurrections uint64
	FlowDeaths    int

	// Availability readout (all zero unless a cluster.CrashPlan fired).
	Crashes           uint64
	DowntimeCycles    sim.Cycles
	RecoveryLagCycles sim.Cycles
	Respawns          int // serving complements respawned after reboots
	// CrashAbandonedBytes is the NICs' abandoned ledger (queued/unacked
	// payload wiped at crash, never wire-final); CrashDroppedBytes sums
	// the wire-carried payload the crashes swallowed (backplane drops
	// into down nodes, wiped reseq buffers, invalidated receive DMAs).
	CrashAbandonedBytes uint64
	CrashDroppedBytes   uint64
	// Dips is the per-crash availability signature (availability.go);
	// DownClasses restricts the sojourn readout to messages that
	// arrived during an outage — the MTTR tail.
	Dips        []Dip
	DownClasses [NumClasses]ClassSLO

	// Samples[node] is each node's queue-depth time series.
	Samples [][]Sample
}

// Goodput is delivered payload bytes per million cycles.
func (r *Result) Goodput() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.DeliveredBytes) * 1e6 / float64(r.Elapsed)
}

// Fingerprint digests everything the simulation determines — counts,
// bytes, sojourn histogram aggregates, queue series, final ordering
// state — into one value two bit-exact runs must share. Two runs of the
// same TrialConfig must produce the same fingerprint at any worker
// count.
//
// The digest is FNV-64a over the decimal text below, appended with
// strconv into one buffer that is hashed and reused as it fills: a
// trial has tens of thousands of samples, and fmt cost several percent
// of a trial's host time.
func (r *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	b := make([]byte, 0, 1024)
	put := func(parts ...any) {
		for _, p := range parts {
			switch v := p.(type) {
			case string:
				b = append(b, v...)
			case int:
				b = strconv.AppendInt(b, int64(v), 10)
			case uint64:
				b = strconv.AppendUint(b, v, 10)
			}
		}
	}
	put("span=", uint64(r.Span), " el=", uint64(r.Elapsed), " msgs=", r.Messages, " del=", r.Delivered,
		" fail=", r.Failed, " bytes=", r.DeliveredBytes, " ord=", r.OrderViolations, " depth=", r.MaxQueueDepth,
		" retry=", r.Retries, " stall=", r.CreditStalls, " rtx=", r.Retransmits, " dfail=", r.DeliveryFailures)
	put(" nipt=", r.NIPTLookups, "/", r.NIPTHits, "/", r.NIPTMisses, "/", r.NIPTEvictions, "/", r.NIPTRefillCycles,
		" rec=", r.Reclaims, " res=", r.Resurrections, " deaths=", r.FlowDeaths)
	put(" crash=", r.Crashes, " dt=", uint64(r.DowntimeCycles), " lag=", uint64(r.RecoveryLagCycles),
		" resp=", r.Respawns, " ab=", r.CrashAbandonedBytes, " cd=", r.CrashDroppedBytes)
	for c := range r.Classes {
		s := &r.Classes[c]
		put(" c", c, "=", s.Offered, "/", s.Delivered, "/", s.Failed, "/", s.Bytes, " max=", s.MaxSojourn)
	}
	for node, series := range r.Samples {
		put(" n", node, ":")
		// The hot loop: strconv straight into b, no boxing through put.
		for _, sm := range series {
			b = strconv.AppendUint(append(b, '('), uint64(sm.At), 10)
			b = strconv.AppendInt(append(b, ','), int64(sm.Depth), 10)
			b = strconv.AppendUint(append(b, ','), sm.CreditStalls, 10)
			b = strconv.AppendUint(append(b, ','), sm.Retransmits, 10)
			b = append(strconv.AppendInt(append(b, ','), int64(sm.Done), 10), ')')
			if len(b) > cap(b)/2 {
				h.Write(b)
				b = b[:0]
			}
		}
	}
	h.Write(b)
	return h.Sum64()
}

// WriteTable renders the per-class SLO readout as aligned text. costs
// may be nil, in which case latencies print in cycles.
func (r *Result) WriteTable(w io.Writer, costs *sim.CostModel) {
	unit, scale := "cycles", func(v float64) float64 { return v }
	if costs != nil {
		unit, scale = "µs", func(v float64) float64 { return costs.Micros(sim.Cycles(v)) }
	}
	fmt.Fprintf(w, "offered %.1f msgs/Mcycle, achieved %.1f; goodput %.0f B/Mcycle; max queue depth %d\n",
		r.OfferedRate, r.AchievedRate, r.Goodput(), r.MaxQueueDepth)
	if r.Cfg.Churn {
		fmt.Fprintf(w, "churn: %d flows (%d deaths); nipt %d lookups, %d misses, %d evictions, %d refill cycles; reclaims %d, resurrections %d\n",
			r.FlowDeaths+r.Cfg.ActiveFlows, r.FlowDeaths,
			r.NIPTLookups, r.NIPTMisses, r.NIPTEvictions, r.NIPTRefillCycles,
			r.Reclaims, r.Resurrections)
	}
	if r.Crashes > 0 {
		fmt.Fprintf(w, "chaos: %d crashes, %d cycles down, %d respawns; abandoned %d B, crash-dropped %d B\n",
			r.Crashes, r.DowntimeCycles, r.Respawns,
			r.CrashAbandonedBytes, r.CrashDroppedBytes)
		for _, d := range r.Dips {
			fmt.Fprintf(w, "  node %d down @%d for %d: dip depth %.2f, recovered @%d (width %d)\n",
				d.Node, d.DownAt, d.UpAt-d.DownAt, d.Depth, d.RecoverAt, d.Width)
		}
	}
	fmt.Fprintf(w, "%-16s %8s %10s %7s %10s %10s %10s\n",
		"class", "offered", "delivered", "failed", "p50 "+unit, "p99 "+unit, "p999 "+unit)
	for c := range r.Classes {
		s := &r.Classes[c]
		fmt.Fprintf(w, "%-16s %8d %10d %7d %10.1f %10.1f %10.1f\n",
			s.Class, s.Offered, s.Delivered, s.Failed,
			scale(s.P50), scale(s.P99), scale(s.P999))
	}
}

// Finish aggregates the trial once the cluster has drained: node-local
// counters fold in node order, the shared sojourn histograms yield the
// percentiles, and the NIC lifetime counters are read post-drain so
// retransmit timers have settled.
func (dr *Driver) Finish() (*Result, error) {
	if err := dr.Err(); err != nil {
		return nil, err
	}
	r := &Result{
		Cfg:      dr.Plan.Cfg,
		Span:     dr.Plan.Span,
		Messages: dr.Plan.Cfg.Messages,
		Samples:  make([][]Sample, len(dr.nodes)),
	}
	if dr.Plan.Span > 0 {
		r.OfferedRate = float64(r.Messages) * 1e6 / float64(dr.Plan.Span)
	}
	var lastDone sim.Cycles
	for i, ns := range dr.nodes {
		for c := 0; c < NumClasses; c++ {
			r.Delivered += ns.delivered[c]
			r.Failed += ns.failed[c]
			r.DeliveredBytes += ns.deliveredBytes[c]
			r.Classes[c].Delivered += ns.delivered[c]
			r.Classes[c].Failed += ns.failed[c]
			r.Classes[c].Bytes += ns.deliveredBytes[c]
		}
		r.OrderViolations += ns.orderViol
		r.Retries += ns.retries
		if ns.maxDepth > r.MaxQueueDepth {
			r.MaxQueueDepth = ns.maxDepth
		}
		if ns.lastDone > lastDone {
			lastDone = ns.lastDone
		}
		r.Samples[i] = ns.samples
		st := dr.cl.NICs[i].Stats()
		r.CreditStalls += st.CreditStalls
		r.Retransmits += st.Retransmits
		r.DeliveryFailures += st.DeliveryFailures
		r.NIPTLookups += st.NIPTLookups
		r.NIPTHits += st.NIPTHits
		r.NIPTMisses += st.NIPTMisses
		r.NIPTEvictions += st.NIPTEvictions
		r.NIPTRefillCycles += st.NIPTRefillCycles
		r.Reclaims += st.SenderReclaims + st.ReceiverReclaims
		r.Resurrections += st.Resurrections
		r.CrashAbandonedBytes += st.CrashAbandonedBytes
		r.CrashDroppedBytes += st.CrashDropBytes
		for c := 0; c < NumClasses; c++ {
			r.DownClasses[c].Delivered += ns.downDelivered[c]
		}
	}
	r.FlowDeaths = dr.Plan.FlowDeaths
	cs := dr.cl.CrashStats()
	r.Crashes = cs.Crashes
	r.DowntimeCycles = cs.DowntimeCycles
	r.RecoveryLagCycles = cs.RecoveryLagCycles
	r.Respawns = dr.respawns
	r.CrashDroppedBytes += dr.cl.Backplane.FaultStats().CrashDroppedDataBytes
	for c := 0; c < NumClasses; c++ {
		s := &r.Classes[c]
		s.Class = Class(c).String()
		s.Offered = dr.Plan.Offered[c]
		h := dr.hist[c]
		s.P50 = h.Quantile(0.50)
		s.P99 = h.Quantile(0.99)
		s.P999 = h.Quantile(0.999)
		s.MeanSojourn = h.Mean()
		s.MaxSojourn = h.Max()
		ds := &r.DownClasses[c]
		ds.Class = Class(c).String()
		hd := dr.histDown[c]
		ds.P50 = hd.Quantile(0.50)
		ds.P99 = hd.Quantile(0.99)
		ds.P999 = hd.Quantile(0.999)
		ds.MeanSojourn = hd.Mean()
		ds.MaxSojourn = hd.Max()
	}
	if lastDone > startAt {
		r.Elapsed = lastDone - startAt
	}
	if r.Elapsed > 0 {
		r.AchievedRate = float64(r.Delivered) * 1e6 / float64(r.Elapsed)
	}
	r.Dips = computeDips(dr.cl.CrashEvents(), r.Samples, r.Delivered, r.Elapsed)
	return r, nil
}

// RatePoint is one point of an offered-rate sweep.
type RatePoint struct {
	Offered  float64
	Achieved float64
}

// Knee scans an ascending offered-rate sweep for the saturation knee:
// the first offered rate whose achieved rate falls below frac of it
// (frac 0 defaults to 0.9). ok is false when the system kept up at
// every point — the sweep never reached saturation.
func Knee(points []RatePoint, frac float64) (rate float64, ok bool) {
	if frac <= 0 {
		frac = 0.9
	}
	for _, pt := range points {
		if pt.Achieved < frac*pt.Offered {
			return pt.Offered, true
		}
	}
	return 0, false
}
