package experiments

import (
	"fmt"

	"shrimp/internal/loadgen"
	"shrimp/internal/machine"
	"shrimp/internal/stats"
)

// ChurnSeed is the default seed for the connection-churn capacity
// sweep; shrimpsim's churn scenario overrides it from the command line.
const ChurnSeed = 0xc4_42_a1

// The churn workload shape: a small live population of short-lived
// flows, each dying after a couple of messages, so the schedule births
// hundreds of distinct flows — one NIPT entry each — while only
// ActiveFlows are ever hot at once. The capacity sweep then measures
// what a bounded on-board NIPT cache costs against that working set.
const (
	churnNodes       = 4
	churnMessages    = 600
	churnRate        = 220
	churnActiveFlows = 48
	churnMsgsPerFlow = 2
	churnReclaimAge  = 150_000
	churnJitter      = 64
)

// churnCapacities is the bounded part of the sweep; the ample (= whole
// backing table) and unbounded points are appended at run time.
var churnCapacities = []int{8, 24, 64, 192}

func churnConfig(seed uint64) loadgen.Config {
	return loadgen.Config{
		Nodes:       churnNodes,
		Seed:        seed,
		Rate:        churnRate,
		Messages:    churnMessages,
		Churn:       true,
		ActiveFlows: churnActiveFlows,
		MsgsPerFlow: churnMsgsPerFlow,
	}
}

func churnTrial(seed uint64, capacity, workers int) (*loadgen.Result, error) {
	res, err := loadgen.RunTrial(loadgen.TrialConfig{
		Config:           churnConfig(seed),
		Workers:          workers,
		NIPTCapacity:     capacity,
		NIPTRefillJitter: churnJitter,
		IdleReclaimAge:   churnReclaimAge,
	})
	if err != nil {
		return nil, fmt.Errorf("capacity %d: %w", capacity, err)
	}
	return res, nil
}

// RunChurn is E16: connection churn vs NIPT capacity. The loadgen churn
// scenario offers open-loop traffic over hundreds of short-lived flows
// (flow birth/death on simulated time, one NIPT entry per flow) and
// sweeps the board's NIPT cache capacity from far-too-small through
// ample to unbounded, reading back goodput, sojourn percentiles, cache
// hit/miss/eviction counts and reliability-state reclamation.
func RunChurn() (*Result, error) {
	return RunChurnSeeded(ChurnSeed)
}

// RunChurnSeeded is RunChurn under a caller-chosen seed.
func RunChurnSeeded(seed uint64) (*Result, error) {
	res := &Result{
		ID:    "e16",
		Title: "Extension: connection churn — goodput and tails vs NIPT cache capacity",
		Paper: "the paper sizes the NIPT to cover all of physical memory; at datacenter connection counts the board holds a cache and the table lives in host memory",
	}
	costs := machine.SHRIMP1996()
	us := func(cycles float64) float64 { return costs.Micros(1) * cycles }

	// Total flow population decides what "ample" means: a cache that
	// holds every entry must be bit-identical to the unbounded table.
	plan := loadgen.BuildPlan(churnConfig(seed))
	ample := int(plan.NIPTEntries())
	capacities := append(append([]int{}, churnCapacities...), ample, 0)
	labels := make([]string, len(capacities))
	for i, c := range capacities {
		switch {
		case c == 0:
			labels[i] = "unbounded"
		case c == ample:
			labels[i] = "ample"
		default:
			labels[i] = fmt.Sprint(c)
		}
	}

	trials, err := fanOut(len(capacities), func(i int) (*loadgen.Result, error) {
		return churnTrial(seed, capacities[i], 1)
	})
	if err != nil {
		return nil, err
	}

	tbl := stats.NewTable(
		fmt.Sprintf("Connection churn vs NIPT capacity (%d msgs, %d live / %d total flows, %d deaths, %d nodes; latency = sojourn µs)",
			churnMessages, churnActiveFlows, len(plan.Flows), plan.FlowDeaths, churnNodes),
		"capacity", "goodput B/Mc", "hit rate", "misses", "evictions", "refill cyc",
		"reclaims", "small p50/p99/p999", "mid p50/p99/p999")
	goodputSer := &stats.Series{Name: "goodput vs NIPT capacity",
		XLabel: "cache capacity (entries; 0 = unbounded)", YLabel: "goodput B/Mcycle"}
	accounted, ordered, tails, served := true, true, true, true
	for i, r := range trials {
		if r.Delivered+r.Failed != r.Messages {
			accounted = false
		}
		if r.OrderViolations != 0 {
			ordered = false
		}
		hitRate := 1.0
		if r.NIPTLookups > 0 {
			hitRate = float64(r.NIPTHits) / float64(r.NIPTLookups)
		}
		row := []string{
			labels[i],
			fmt.Sprintf("%.0f", r.Goodput()),
			fmt.Sprintf("%.3f", hitRate),
			fmt.Sprintf("%d", r.NIPTMisses),
			fmt.Sprintf("%d", r.NIPTEvictions),
			fmt.Sprintf("%d", r.NIPTRefillCycles),
			fmt.Sprintf("%d", r.Reclaims),
		}
		for _, c := range []loadgen.Class{loadgen.ClassSmall, loadgen.ClassMid} {
			s := &r.Classes[c]
			if s.Delivered > 0 && !(s.P50 <= s.P99 && s.P99 <= s.P999) {
				tails = false
			}
			row = append(row, fmt.Sprintf("%.1f/%.1f/%.1f", us(s.P50), us(s.P99), us(s.P999)))
		}
		tbl.AddRow(row...)
		goodputSer.Add(float64(capacities[i]), r.Goodput())

		res.metric(metricKey("cap", labels[i], "goodput_bpmc"), r.Goodput())
		res.metric(metricKey("cap", labels[i], "misses"), float64(r.NIPTMisses))
		sm := &r.Classes[loadgen.ClassSmall]
		served = served && r.Goodput() > 0 && sm.P50 > 0
		res.metric(metricKey("cap", labels[i], "p50_us"), us(sm.P50))
		res.metric(metricKey("cap", labels[i], "p99_us"), us(sm.P99))
		res.metric(metricKey("cap", labels[i], "p999_us"), us(sm.P999))
	}
	res.Tables = append(res.Tables, tbl)
	res.Series = append(res.Series, goodputSer)

	res.check("every message delivered or failed typed at every capacity", accounted, "")
	res.check("per-flow FIFO order held at every capacity (0 violations)", ordered, "")
	res.check("sojourn percentiles ordered p50 <= p99 <= p999 everywhere", tails, "")

	res.check("goodput and small-class p50 are positive at every capacity", served, "")

	res.check("the schedule actually churned (hundreds of flow deaths)",
		plan.FlowDeaths >= 100, "%d deaths over %d messages", plan.FlowDeaths, churnMessages)

	tiny, big := trials[0], trials[len(churnCapacities)-1]
	ampleTrial, unbounded := trials[len(trials)-2], trials[len(trials)-1]
	res.check("a tiny cache misses far more than a big one",
		tiny.NIPTMisses > big.NIPTMisses,
		"capacity %d: %d misses vs capacity %d: %d misses",
		capacities[0], tiny.NIPTMisses, capacities[len(churnCapacities)-1], big.NIPTMisses)
	res.check("a tiny cache misses more than the unbounded table",
		tiny.NIPTMisses > unbounded.NIPTMisses,
		"capacity %d: %d misses vs unbounded: %d misses",
		capacities[0], tiny.NIPTMisses, unbounded.NIPTMisses)
	res.check("a tiny cache evicts under churn; the unbounded table never does",
		tiny.NIPTEvictions > 0 && unbounded.NIPTEvictions == 0,
		"%d vs %d evictions", tiny.NIPTEvictions, unbounded.NIPTEvictions)
	res.check("idle reliability state was reclaimed and resurrected during the run",
		tiny.Reclaims > 0 && tiny.Resurrections > 0,
		"%d reclaims, %d resurrections", tiny.Reclaims, tiny.Resurrections)
	res.check("a cache holding the whole table is bit-identical to the unbounded table",
		ampleTrial.Fingerprint() == unbounded.Fingerprint(),
		"%016x vs %016x", ampleTrial.Fingerprint(), unbounded.Fingerprint())

	// Determinism: the tiny-capacity trial re-run bit-exactly, serially
	// and on four workers.
	if err := res.checkReproduces("churn trial", tiny, func(workers int) (*loadgen.Result, error) {
		return churnTrial(seed, capacities[0], workers)
	}); err != nil {
		return nil, err
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("seed %#x; %d live flows, mean %d msgs per flow, %d total flows over the schedule",
			seed, churnActiveFlows, churnMsgsPerFlow, len(plan.Flows)),
		"each flow owns one NIPT entry; misses pay a seeded refill from host memory on simulated time",
		fmt.Sprintf("idle reliability state ages out after %d cycles at lockstep barriers and is resurrected (epoch-bumped) by fresh traffic", churnReclaimAge),
		"latency metrics quote the small-pio class: the most numerous class, and the one whose misses defer the FIFO launch itself")
	return res, nil
}
