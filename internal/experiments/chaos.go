package experiments

import (
	"fmt"

	"shrimp/internal/cluster"
	"shrimp/internal/loadgen"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
)

// ChaosSeed is the default seed for the crash–restart availability
// sweep; shrimpsim's chaos scenario overrides it from the command line.
const ChaosSeed = 0xe17_ab1e

// The chaos workload shape: a modest open-loop load (well under the
// saturation knee, so availability dips are attributable to outages
// rather than queueing) with the reliability layer tuned to fail fast —
// peers of a dead node reach the retry cap well inside one MTTR, the
// message fails typed, and the flow resumes on the next epoch after
// the reboot.
const (
	chaosNodes       = 4
	chaosMessages    = 500
	chaosRate        = 150
	chaosRetxTimeout = 6_000
	chaosRelRetries  = 3
	chaosMTBF        = 800_000
	chaosFirstAt     = 200_000
)

// chaosPoint is one cell of the crash-schedule grid: a crash budget and
// a repair time. Zero crashes is the clean baseline; "late" arms the
// plan past the trial's span and must fingerprint identically to it.
type chaosPoint struct {
	label   string
	crashes int        // MaxCrashes (0 with mtbf 0 = no plan)
	mttr    sim.Cycles // repair time; 0 = plan disabled
	late    bool       // armed but first crash beyond the run
}

var chaosPoints = []chaosPoint{
	{label: "none"},
	{label: "late", late: true},
	{label: "c1-m100k", crashes: 1, mttr: 100_000},
	{label: "c1-m400k", crashes: 1, mttr: 400_000},
	{label: "c2-m100k", crashes: 2, mttr: 100_000},
	{label: "c2-m400k", crashes: 2, mttr: 400_000},
}

func chaosTrial(seed uint64, pt chaosPoint, workers int) (*loadgen.Result, error) {
	tc := loadgen.TrialConfig{
		Config: loadgen.Config{
			Nodes:    chaosNodes,
			Seed:     seed,
			Rate:     chaosRate,
			Messages: chaosMessages,
		},
		Workers:       workers,
		RetxTimeout:   chaosRetxTimeout,
		RelMaxRetries: chaosRelRetries,
	}
	switch {
	case pt.late:
		tc.Crash = cluster.CrashPlan{Seed: seed, MTBF: chaosMTBF,
			FirstAt: sim.Cycles(1) << 50}
	case pt.crashes > 0:
		tc.Crash = cluster.CrashPlan{Seed: seed, MTBF: chaosMTBF,
			MTTR: pt.mttr, FirstAt: chaosFirstAt, MaxCrashes: pt.crashes}
	}
	res, err := loadgen.RunTrial(tc)
	if err != nil {
		return nil, fmt.Errorf("chaos point %s: %w", pt.label, err)
	}
	return res, nil
}

// RunChaos is E17: node crash–restart chaos vs availability SLOs. The
// open-loop serving workload runs under a seeded whole-node
// crash–restart schedule (cluster.CrashPlan), sweeping the crash budget
// and the repair time, and reads back goodput, typed delivery failures,
// downtime, and the per-crash availability signature — dip depth and
// time-to-recover out of the delivery time series.
func RunChaos() (*Result, error) {
	const seed = ChaosSeed
	res := &Result{
		ID:    "e17",
		Title: "Extension: crash–restart chaos — availability dips and time-to-recover",
		Paper: "the paper's reliability story is per-transfer error recovery on a live node; datacenter availability adds whole-node crash–restart, which the epoch-bumped reliability state and host-memory NIPT backing make survivable",
	}
	costs := machine.SHRIMP1996()
	us := func(cycles float64) float64 { return costs.Micros(1) * cycles }

	trials, err := fanOut(len(chaosPoints), func(i int) (*loadgen.Result, error) {
		return chaosTrial(seed, chaosPoints[i], 1)
	})
	if err != nil {
		return nil, err
	}

	tbl := stats.NewTable(
		fmt.Sprintf("Crash–restart chaos (%d msgs, %d nodes, retx %d cyc ×%d retries; dip from the delivery time series)",
			chaosMessages, chaosNodes, chaosRetxTimeout, chaosRelRetries),
		"schedule", "goodput B/Mc", "delivered", "failed", "crashes",
		"downtime cyc", "dip depth", "recover µs")
	goodputSer := &stats.Series{Name: "goodput vs crash schedule",
		XLabel: "schedule point (0=none)", YLabel: "goodput B/Mcycle"}
	accounted, recovered, dippedRecovered := true, true, false
	maxDepth := 0.0
	for i, r := range trials {
		pt := chaosPoints[i]
		if r.Delivered+r.Failed != r.Messages {
			accounted = false
		}
		// Deepest dip and latest recovery across the point's outages.
		depth, recover := 0.0, sim.Cycles(0)
		for _, d := range r.Dips {
			if d.Depth > depth {
				depth = d.Depth
			}
			if d.RecoverAt > recover {
				recover = d.RecoverAt
			}
			// A dip that never recovered is only tolerable when the
			// outage began after the last delivery (nothing left to
			// recover); mid-load outages must come back.
			if d.RecoverAt == 0 && r.Delivered > 0 && d.DownAt < r.Elapsed {
				recovered = false
			}
		}
		if depth > maxDepth {
			maxDepth = depth
		}
		dippedRecovered = dippedRecovered || (depth > 0 && recover > 0)
		tbl.AddRow(pt.label,
			fmt.Sprintf("%.0f", r.Goodput()),
			fmt.Sprintf("%d", r.Delivered),
			fmt.Sprintf("%d", r.Failed),
			fmt.Sprintf("%d", r.Crashes),
			fmt.Sprintf("%d", r.DowntimeCycles),
			fmt.Sprintf("%.2f", depth),
			fmt.Sprintf("%.1f", us(float64(recover))))
		goodputSer.Add(float64(i), r.Goodput())

		res.metric(metricKey("sched", pt.label, "goodput_bpmc"), r.Goodput())
		res.metric(metricKey("sched", pt.label, "failed"), float64(r.Failed))
		res.metric(metricKey("sched", pt.label, "crashes"), float64(r.Crashes))
		res.metric(metricKey("sched", pt.label, "downtime_cycles"), float64(r.DowntimeCycles))
		res.metric(metricKey("sched", pt.label, "dip_depth"), depth)
		res.metric(metricKey("sched", pt.label, "recover_us"), us(float64(recover)))
	}
	res.Tables = append(res.Tables, tbl)
	res.Series = append(res.Series, goodputSer)

	none, late := trials[0], trials[1]
	res.check("every message delivered or failed typed at every schedule", accounted, "")
	res.check("the clean baseline fails nothing", none.Failed == 0,
		"%d failures with no crash plan", none.Failed)
	res.check("a plan armed past the run is bit-identical to no plan",
		late.Crashes == 0 && none.Fingerprint() == late.Fingerprint(),
		"late fired %d crashes; %016x vs %016x", late.Crashes, none.Fingerprint(), late.Fingerprint())

	for i, r := range trials {
		pt := chaosPoints[i]
		if pt.crashes == 0 {
			continue
		}
		res.check(fmt.Sprintf("schedule %s fired its full crash budget", pt.label),
			int(r.Crashes) == pt.crashes, "%d of %d crashes", r.Crashes, pt.crashes)
		res.check(fmt.Sprintf("schedule %s respawned every rebooted node", pt.label),
			r.Respawns == int(r.Crashes) && r.DowntimeCycles > 0,
			"%d respawns for %d crashes, %d cycles down", r.Respawns, r.Crashes, r.DowntimeCycles)
		res.check(fmt.Sprintf("schedule %s kept serving (goodput > 0)", pt.label),
			r.Goodput() > 0, "%.0f B/Mcycle", r.Goodput())
	}
	res.check("goodput visibly dipped during at least one outage", maxDepth > 0,
		"max dip depth %.2f", maxDepth)
	res.check("every mid-load outage recovered (deliveries resumed after reboot)",
		recovered, "")
	res.check("at least one schedule dipped and then recovered", dippedRecovered, "")

	// Longer repairs cost more downtime under the same crash budget.
	m100, m400 := trials[4], trials[5]
	res.check("quadrupling MTTR increases downtime under the same crash budget",
		m400.DowntimeCycles > m100.DowntimeCycles,
		"%d vs %d cycles down", m100.DowntimeCycles, m400.DowntimeCycles)

	// Determinism: the heaviest schedule re-run bit-exactly, serially and
	// on four workers.
	if err := res.checkReproduces("chaos trial", trials[4], func(workers int) (*loadgen.Result, error) {
		return chaosTrial(seed, chaosPoints[4], workers)
	}); err != nil {
		return nil, err
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("seed %#x; crashes drawn exp(MTBF=%d) from %d, applied at lockstep barriers", seed, chaosMTBF, chaosFirstAt),
		"a crash wipes the board (NIPT cache, reliability state, FIFOs, in-flight DMA) and machine-checks the kernel; the reboot rebuilds the NIPT from the host-memory table and resumes flows epoch-bumped",
		fmt.Sprintf("peers fail fast: retx %d cycles × %d retries puts the typed DeliveryError well inside one MTTR", chaosRetxTimeout, chaosRelRetries),
		"dip depth is 1 − min bucket delivery rate / trial mean; recover is the end of the first delivering bucket after the reboot")
	return res, nil
}
