package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// speedupCase is one e14 workload configuration: an all-nodes-sending
// mesh with per-node compute burners, optionally under a lossy fault
// plan with the reliability layer recovering underneath.
type speedupCase struct {
	name     string
	nodes    int
	messages int // per node
	size     int // bytes per message
	window   sim.Cycles
	lossy    bool
}

// e14Small is the original 8-node ring — kept as the small-config
// reference point (per-window overhead dominates here, so it is the
// workload that punishes barrier churn hardest).
var e14Small = speedupCase{name: "ring8", nodes: 8, messages: 64, size: 4096, window: 10_000}

// e14Large is the speedup-curve config: 32 nodes, thousands of
// transfers, a window wide enough that each barrier hands every worker
// real simulated work. The headline speedup_workers_N metrics (and the
// CI regression floor) are measured on this case.
var e14Large = speedupCase{name: "mesh32", nodes: 32, messages: 192, size: 4096, window: 20_000}

// e14LargeLossy is e14Large under a lossy wire with reliable delivery:
// drops, dups, corruption and delays all active, retransmit timers
// live. Used for fingerprint (determinism) checks only — loss recovery
// is deterministic but its wall-clock is retransmit-bound, so it is not
// the speedup headline.
var e14LargeLossy = speedupCase{name: "mesh32-lossy", nodes: 32, messages: 48, size: 4096, window: 2_000, lossy: true}

// RunParallelSpeedup is E14: the conservative parallel execution core's
// cost/benefit card. Each configuration runs at cluster worker counts
// 1, 2, 4 and 8; for each run the experiment records host wall-clock
// time, barrier-round counts and a fingerprint of the simulated
// outcome. The determinism checks are absolute (fingerprints must be
// byte-identical at every worker count, clean and lossy). The speedups
// are host wall-clock, so they are recorded as metrics only: the
// host-aware floor lives in CI's bench gate, which judges them against
// the cores the bench run actually had.
func RunParallelSpeedup() (*Result, error) {
	res := &Result{
		ID:    "e14",
		Title: "Parallel simulation: serial vs parallel wall-clock speedup",
		Paper: "extension — the paper's nodes run concurrently in hardware; this measures simulating them concurrently",
	}
	cpus := runtime.NumCPU()
	res.metric("host_cpus", float64(cpus))

	workers := []int{1, 2, 4, 8}

	// Small config: report per-window overhead shape, assert determinism.
	smallTbl := stats.NewTable(
		fmt.Sprintf("Conservative parallel execution, %d-node ring (%d × %d KB per node)",
			e14Small.nodes, e14Small.messages, e14Small.size/1024),
		"workers", "wall ms", "speedup", "rounds", "sim fingerprint")
	if err := runSpeedupCurve(res, e14Small, workers, smallTbl, "ring8_", nil); err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, smallTbl)

	// Large config: the headline speedup curve.
	largeTbl := stats.NewTable(
		fmt.Sprintf("Conservative parallel execution, %d-node mesh (%d × %d KB per node)",
			e14Large.nodes, e14Large.messages, e14Large.size/1024),
		"workers", "wall ms", "speedup", "rounds", "sim fingerprint")
	series := &stats.Series{Name: "simulation speedup vs workers (32-node mesh)",
		XLabel: "workers", YLabel: "speedup vs serial"}
	if err := runSpeedupCurve(res, e14Large, workers, largeTbl, "", series); err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, largeTbl)
	res.Series = append(res.Series, series)

	// Lossy large config: fingerprint equality only — the reliability
	// layer's retransmit clockwork must be byte-identical at every
	// worker count too.
	lossyTbl := stats.NewTable(
		fmt.Sprintf("Same mesh under a lossy wire (reliable delivery, %d × %d KB per node)",
			e14LargeLossy.messages, e14LargeLossy.size/1024),
		"workers", "wall ms", "speedup", "rounds", "sim fingerprint")
	if err := runSpeedupCurve(res, e14LargeLossy, workers, lossyTbl, "lossy_", nil); err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, lossyTbl)

	res.Notes = append(res.Notes,
		fmt.Sprintf("host has %d CPU core(s); the speedups are recorded as metrics only (CI's bench gate holds the floor)", cpus),
		"speedup is host wall-clock, so it varies with machine load; the fingerprint equality is the invariant",
		"each worker runs whole node windows between barriers (deferred-mailbox delivery), so the parallelism never perturbs simulated time",
		"per-link lookahead extends each node's window to min over senders of (sender clock + link flight floor), so distant mesh corners do not serialize on the slowest node")
	return res, nil
}

// runSpeedupCurve runs one case across the worker counts, filling the
// table (and the series, when non-nil), emitting metrics under the
// prefix, and asserting fingerprint equality across worker counts.
func runSpeedupCurve(res *Result, sc speedupCase, workers []int, tbl *stats.Table, prefix string, series *stats.Series) error {
	var baseMS float64
	var baseFP string
	identical := true
	for _, w := range workers {
		fp, wall, rounds, err := parallelSpeedupRun(sc, w)
		if err != nil {
			return fmt.Errorf("%s workers=%d: %w", sc.name, w, err)
		}
		ms := float64(wall.Microseconds()) / 1000
		if w == workers[0] {
			baseMS, baseFP = ms, fp
		}
		if fp != baseFP {
			identical = false
		}
		speedup := 0.0
		if ms > 0 {
			speedup = baseMS / ms
		}
		if series != nil {
			series.Add(float64(w), speedup)
		}
		tbl.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%.1f", ms),
			fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%d", rounds), fp[:16])
		res.metric(fmt.Sprintf("%swall_ms_workers_%d", prefix, w), ms)
		res.metric(fmt.Sprintf("%sspeedup_workers_%d", prefix, w), speedup)
		if w == workers[0] {
			res.metric(prefix+"barrier_rounds", float64(rounds))
		}
	}
	res.check(fmt.Sprintf("%s: simulation is bit-identical at every worker count", sc.name), identical,
		"fingerprints at workers 1/2/4/8 must match; base %s", baseFP[:16])
	return nil
}

// parallelSpeedupRun executes one case at the given worker count and
// returns (simulation fingerprint, host wall-clock, barrier rounds).
func parallelSpeedupRun(sc speedupCase, workers int) (string, time.Duration, uint64, error) {
	cfg := cluster.Config{
		Nodes:   sc.nodes,
		Workers: workers,
		Window:  sc.window,
		Machine: machine.Config{RAMFrames: 96, Kernel: kernel.Config{Quantum: 2000}},
		NIC:     nic.Config{NIPTPages: 16},
	}
	if sc.lossy {
		cfg.NIC.Reliability = nic.ReliabilityConfig{Enabled: true, Window: 4, MaxPending: 8}
		cfg.Fault = interconnect.FaultPlan{
			Seed:     0xE14,
			DropRate: 0.05, DupRate: 0.02, CorruptRate: 0.02, DelayRate: 0.10,
		}
	}
	c := cluster.New(cfg)
	defer c.Shutdown()

	senders := make([]*workload.Sender, sc.nodes)
	for i := range senders {
		// Destination stride near half the mesh width forces multi-hop
		// routes (distance buys per-link lookahead; adjacency would not
		// exercise it).
		if err := udmalib.MapSendWindow(c.NICs[i], 0, (i+sc.nodes/2-1)%sc.nodes, []uint32{48}); err != nil {
			return "", 0, 0, err
		}
		s := &workload.Sender{Dev: c.NICs[i], Size: sc.size, Seed: byte(i + 1), Messages: sc.messages}
		if sc.lossy {
			// Loss is expected; exhausted retries are a deterministic
			// outcome, not a rig failure.
			s.Retry = &udmalib.RetryPolicy{MaxAttempts: 20, Backoff: 512}
			s.Done = func(_ sim.Cycles, err error) error {
				if err != nil {
					return errStopSender
				}
				return nil
			}
		}
		senders[i] = s
	}
	start := time.Now()
	if err := runSenders(c, 5_000_000_000, senders, func(i int) {
		c.Nodes[i].Kernel.Spawn(fmt.Sprintf("burner%d", i), workload.Burner(900, 400_000))
	}); err != nil {
		return "", 0, 0, err
	}
	wall := time.Since(start)

	h := fnv.New64a()
	for i := 0; i < sc.nodes; i++ {
		ks := c.Nodes[i].Kernel.Stats()
		ns := c.NICs[i].Stats()
		fmt.Fprintf(h, "n%d clock=%d kstats=%+v nic=%+v|", i, c.Nodes[i].Clock.Now(), ks, ns)
	}
	pkts, bytes, rp, rb := c.Backplane.Stats()
	if !sc.lossy && bytes != uint64(sc.nodes*sc.messages*sc.size) {
		return "", 0, 0, fmt.Errorf("wire carried %d bytes, want %d", bytes, sc.nodes*sc.messages*sc.size)
	}
	if sc.lossy && pkts == 0 {
		return "", 0, 0, fmt.Errorf("lossy run sent no traffic; fingerprint would be vacuous")
	}
	fmt.Fprintf(h, "net:%d:%d:%d:%d fault=%+v", pkts, bytes, rp, rb, c.Backplane.FaultStats())
	return fmt.Sprintf("%016x", h.Sum64()), wall, c.Rounds(), nil
}
