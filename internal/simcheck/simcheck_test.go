package simcheck

import (
	"flag"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/golden"
	"shrimp/internal/loadgen"
	"shrimp/internal/telemetry"
)

// seedFlag reruns exactly one seed — the one-command repro every
// failure report prints.
var seedFlag = flag.Uint64("simcheck.seed", 0, "run only this simcheck seed (0 = full sweep)")

// TestSimCheck sweeps randomized scenarios under the online auditor:
// 64 seeds in -short mode, 256 otherwise. With -simcheck.seed=N it runs
// only seed N, which is how a reported failure is reproduced.
func TestSimCheck(t *testing.T) {
	if *seedFlag != 0 {
		rep := Run(*seedFlag, Options{})
		t.Log(rep.String())
		if rep.Failed() {
			t.Fatalf("seed %d failed", rep.Seed)
		}
		return
	}
	seeds := 256
	if testing.Short() {
		seeds = 64
	}
	reps := Sweep(1, seeds, runtime.GOMAXPROCS(0), Options{})
	for _, rep := range reps {
		if rep.Failed() {
			t.Fatalf("\n%s", rep.String())
		}
	}
	checkSweepGolden(t, "plain", reps)
}

// checkSweepGolden compares one Report line per seed with the mode's
// golden file, testdata/golden/simcheck/<mode>.txt; under -short the
// sweep's seeds are a prefix of the file's. The plain file is exactly
// the per-seed lines of `shrimpsim -scenario fuzz -seed 1 -count 256`.
func checkSweepGolden(t *testing.T, mode string, reps []*Report) {
	t.Helper()
	var b strings.Builder
	for _, rep := range reps {
		b.WriteString(rep.String())
		b.WriteByte('\n')
	}
	golden.CheckPrefix(t, "simcheck/"+mode+".txt", b.String())
}

// lossyOverride forces the acceptance-criteria fault mix onto any
// scenario: multi-node, 10% drop, 2% corruption, duplicates and
// reordering delays, with the reliability sublayer armed.
func lossyOverride(cfg *ScenarioConfig) {
	if cfg.Nodes < 2 {
		cfg.Nodes = 2
	}
	// Field by field: a seed that drew link flapping keeps it.
	cfg.Fault.DropRate = 0.10
	cfg.Fault.CorruptRate = 0.02
	cfg.Fault.DupRate = 0.02
	cfg.Fault.DelayRate = 0.10
}

// TestSimCheckLossySweep is the acceptance sweep for the reliable
// delivery layer: every seed runs multi-node traffic over a wire with
// 10% drop + 2% corruption + duplication + reordering, and the full
// auditor (invariants, final page verification, end-to-end byte
// conservation across retransmission) must stay silent — every
// transfer either completed byte-exact or failed with a typed error
// after the retry cap. A subset of seeds is run twice to prove the
// outcome and telemetry reproduce exactly.
func TestSimCheckLossySweep(t *testing.T) {
	seeds := 256
	if testing.Short() {
		seeds = 64
	}
	opts := Options{Override: lossyOverride}
	reps := Sweep(1, seeds, runtime.GOMAXPROCS(0), opts)
	for _, rep := range reps {
		if rep.Failed() {
			t.Fatalf("\n%s", rep.String())
		}
		if rep.Seed%32 == 0 {
			again := Run(rep.Seed, opts)
			if again.Fingerprint != rep.Fingerprint {
				t.Fatalf("seed %d: lossy run not reproducible: %016x vs %016x",
					rep.Seed, rep.Fingerprint, again.Fingerprint)
			}
		}
	}
	checkSweepGolden(t, "lossy", reps)
}

// TestSimCheckDeterminism proves the repro contract: two runs of one
// seed produce identical fingerprints (final clocks plus every
// hardware and kernel counter).
func TestSimCheckDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23, 101} {
		a := Run(seed, Options{})
		b := Run(seed, Options{})
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("seed %d: fingerprints differ: %016x vs %016x", seed, a.Fingerprint, b.Fingerprint)
		}
		if a.Failed() != b.Failed() || len(a.Violations) != len(b.Violations) {
			t.Errorf("seed %d: runs disagree on violations: %d vs %d",
				seed, len(a.Violations), len(b.Violations))
		}
	}
}

// TestSimCheckLivenessBound pins the MaxSteps stop rule: seed 1 needs 14
// windows, so a budget of 2 must end the run after window index 2 with a
// liveness violation, and Report.Steps must count exactly those rounds.
func TestSimCheckLivenessBound(t *testing.T) {
	rep := Run(1, Options{Override: func(cfg *ScenarioConfig) { cfg.MaxSteps = 2 }})
	if len(rep.Violations) != 1 || rep.Violations[0].Invariant != "liveness" {
		t.Fatalf("want exactly one liveness violation, got:\n%s", rep)
	}
	if v := rep.Violations[0]; v.Step != 2 || rep.Steps != 3 {
		t.Fatalf("violation at step %d after %d rounds, want step 2 after 3", v.Step, rep.Steps)
	}
}

// TestSimCheckWorkerEquivalence is the acceptance criterion for the
// parallel execution core: for every seed, a scenario run with eight
// cluster workers must be indistinguishable from the serial run —
// identical fingerprint (clocks plus every hardware/kernel counter),
// identical violations, identical per-node trace summaries.
func TestSimCheckWorkerEquivalence(t *testing.T) {
	seeds := uint64(64)
	if testing.Short() {
		seeds = 16
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		checkWorkerEquivalence(t, seed, Options{}, false)
	}
}

// checkWorkerEquivalence runs seed under opts serially and on eight
// workers and fails unless both runs agree on the scenario fingerprint,
// the violation count and every node's trace summary, and with snapshot
// on the full telemetry snapshot. It returns the serial report.
func checkWorkerEquivalence(t *testing.T, seed uint64, opts Options, snapshot bool) *Report {
	t.Helper()
	run := func(workers int) (*Report, string) {
		opts := opts
		opts.Workers = workers
		if !snapshot {
			return Run(seed, opts), ""
		}
		opts.Metrics = telemetry.New()
		rep := Run(seed, opts)
		return rep, fmt.Sprintf("%+v", *opts.Metrics.Snapshot())
	}
	serial, serialSnap := run(1)
	par, parSnap := run(8)
	if serial.Fingerprint != par.Fingerprint {
		t.Fatalf("seed %d: workers=8 fingerprint %016x != workers=1 %016x",
			seed, par.Fingerprint, serial.Fingerprint)
	}
	if len(serial.Violations) != len(par.Violations) {
		t.Fatalf("seed %d: violation counts differ across workers: %d vs %d",
			seed, len(serial.Violations), len(par.Violations))
	}
	if parSnap != serialSnap {
		t.Fatalf("seed %d: metric snapshots differ across workers:\n%s\nvs\n%s", seed, parSnap, serialSnap)
	}
	if fmt.Sprint(serial.TraceSummaries) != fmt.Sprint(par.TraceSummaries) {
		t.Fatalf("seed %d: trace summaries differ across workers:\n%v\nvs\n%v",
			seed, serial.TraceSummaries, par.TraceSummaries)
	}
	return serial
}

// TestSimCheckLossyWorkerEquivalence is satellite coverage for the same
// invariant under the hostile-wire mix: a lossy scenario (drops,
// corruption, duplicates, reordering, retransmission timers) run at
// workers=1 and workers=8 must agree on the scenario fingerprint, the
// full telemetry snapshot and every node's trace summary.
func TestSimCheckLossyWorkerEquivalence(t *testing.T) {
	if serial := checkWorkerEquivalence(t, 3, Options{Override: lossyOverride}, true); serial.Failed() {
		t.Fatalf("lossy scenario failed serially:\n%s", serial.String())
	}
}

// serveOverride switches a seed's scenario to open-loop serving: the
// internal/loadgen driver replaces the random op programs while the
// seed keeps drawing the machine shape (RAM, quanta, cleaner, faults,
// lossy wire) the auditor then checks underneath the load.
func serveOverride(cfg *ScenarioConfig) {
	cfg.Serve = &loadgen.Config{}
}

// TestSimCheckServeSweep runs the invariant auditor under open-loop
// load: per-destination FIFO flows of PIO and UDMA traffic at a steady
// offered rate, over whatever machine regime each seed draws (including
// fault injection and lossy wires), with I1–I4, refcount and byte
// conservation checked at every window and the driver's own books
// (delivered + typed-failed = offered, per-flow order) at the end.
func TestSimCheckServeSweep(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	opts := Options{Override: serveOverride}
	reps := Sweep(1, seeds, runtime.GOMAXPROCS(0), opts)
	for _, rep := range reps {
		if rep.Failed() {
			t.Fatalf("\n%s", rep.String())
		}
		if rep.Cfg.Serve == nil || rep.Cfg.Nodes < 2 {
			t.Fatalf("seed %d: serve override not applied: %+v", rep.Seed, rep.Cfg)
		}
	}
	checkSweepGolden(t, "serve", reps)
}

// TestSimCheckServeWorkerEquivalence is the acceptance criterion for
// serving on the parallel core: a serve scenario run with eight cluster
// workers must be indistinguishable from the serial run — identical
// fingerprint, violations and per-node trace summaries.
func TestSimCheckServeWorkerEquivalence(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		if serial := checkWorkerEquivalence(t, seed, Options{Override: serveOverride}, false); serial.Failed() {
			t.Fatalf("seed %d failed serially:\n%s", seed, serial.String())
		}
	}
}

// TestSimCheckServeLossyWorkerEquivalence composes the two hardest
// regimes: open-loop load over the acceptance-criteria hostile wire,
// serial vs eight workers, comparing fingerprint, telemetry snapshot
// (including the loadgen sojourn mirrors) and trace summaries.
func TestSimCheckServeLossyWorkerEquivalence(t *testing.T) {
	override := func(cfg *ScenarioConfig) { lossyOverride(cfg); serveOverride(cfg) }
	if serial := checkWorkerEquivalence(t, 5, Options{Override: override}, true); serial.Failed() {
		t.Fatalf("lossy serve scenario failed serially:\n%s", serial.String())
	}
}

// churnOverride switches a seed's scenario to connection-churn serving:
// short-lived flows with one NIPT entry each, a bounded NIPT cache
// (forced on seeds that drew none, so every run has eviction pressure),
// and idle-state reclamation on lossy seeds where the reliability layer
// is armed.
func churnOverride(cfg *ScenarioConfig) {
	cfg.Serve = &loadgen.Config{Churn: true}
	if cfg.NIC.NIPTCapacity == 0 {
		cfg.NIC.NIPTCapacity = 8
	}
	if cfg.Fault.Enabled() && cfg.NIC.Reliability.IdleReclaimAge == 0 {
		cfg.NIC.Reliability.IdleReclaimAge = 40_000
	}
}

// TestSimCheckChurnSweep runs the invariant auditor under connection
// churn: flow birth/death on simulated time, thousands of short-lived
// NIPT entries chased by a small cache, over whatever machine regime
// each seed draws — with I1–I4, conservation and the serve books
// checked exactly as in the fixed-flow sweep.
func TestSimCheckChurnSweep(t *testing.T) {
	seeds := 256
	if testing.Short() {
		seeds = 64
	}
	opts := Options{Override: churnOverride}
	reps := Sweep(1, seeds, runtime.GOMAXPROCS(0), opts)
	for _, rep := range reps {
		if rep.Failed() {
			t.Fatalf("\n%s", rep.String())
		}
		if rep.Cfg.Serve == nil || !rep.Cfg.Serve.Churn || rep.Cfg.NIC.NIPTCapacity == 0 {
			t.Fatalf("seed %d: churn override not applied: %+v", rep.Seed, rep.Cfg)
		}
	}
	checkSweepGolden(t, "churn", reps)
}

// TestSimCheckChurnWorkerEquivalence: churn composes flow birth/death,
// cache refills on simulated time and barrier-published reclamation —
// the run must still be bit-exact between one worker and eight.
func TestSimCheckChurnWorkerEquivalence(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		if serial := checkWorkerEquivalence(t, seed, Options{Override: churnOverride}, false); serial.Failed() {
			t.Fatalf("seed %d failed serially:\n%s", seed, serial.String())
		}
	}
}

// chaosOverride forces the node crash–restart plan onto any scenario:
// multi-node (a lone node crashing proves nothing about its peers) with
// an MTBF small enough that crashes reliably fire inside the run.
func chaosOverride(cfg *ScenarioConfig) {
	if cfg.Nodes < 2 {
		cfg.Nodes = 2
	}
	cfg.Crash = cluster.CrashPlan{MTBF: 120_000, MTTR: 50_000, MaxCrashes: 2}
}

// TestSimCheckChaosSweep is the acceptance sweep for the crash–restart
// fault model: every seed runs with whole-node power loss armed on top
// of whatever machine regime it drew (fault injection, lossy wires,
// kills), and the full auditor — invariants, refcounts, end-to-end byte
// conservation including the crash ledgers — must stay silent. A subset
// of seeds reruns to prove chaos outcomes reproduce exactly.
func TestSimCheckChaosSweep(t *testing.T) {
	seeds := 256
	if testing.Short() {
		seeds = 64
	}
	opts := Options{Override: chaosOverride}
	reps := Sweep(1, seeds, runtime.GOMAXPROCS(0), opts)
	for _, rep := range reps {
		if rep.Failed() {
			t.Fatalf("\n%s", rep.String())
		}
		if rep.Seed%32 == 0 {
			again := Run(rep.Seed, opts)
			if again.Fingerprint != rep.Fingerprint {
				t.Fatalf("seed %d: chaos run not reproducible: %016x vs %016x",
					rep.Seed, rep.Fingerprint, again.Fingerprint)
			}
		}
	}
	checkSweepGolden(t, "chaos", reps)
}

// TestSimCheckChaosWorkerEquivalence: crash and reboot are barrier
// actions like every other cross-node control, so a chaos run must be
// bit-exact between one worker and eight.
func TestSimCheckChaosWorkerEquivalence(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		if serial := checkWorkerEquivalence(t, seed, Options{Override: chaosOverride}, false); serial.Failed() {
			t.Fatalf("seed %d failed serially:\n%s", seed, serial.String())
		}
	}
}

// TestSimCheckChaosServeLossyWorkerEquivalence composes every regime at
// once: open-loop serving over the hostile wire while nodes crash and
// reboot mid-load — the respawn path, epoch resurrection and the crash
// byte ledgers all active — serial vs eight workers, comparing
// fingerprint, telemetry snapshot and trace summaries.
func TestSimCheckChaosServeLossyWorkerEquivalence(t *testing.T) {
	override := func(cfg *ScenarioConfig) {
		lossyOverride(cfg)
		serveOverride(cfg)
		chaosOverride(cfg)
	}
	if serial := checkWorkerEquivalence(t, 5, Options{Override: override}, true); serial.Failed() {
		t.Fatalf("chaos serve scenario failed serially:\n%s", serial.String())
	}
}

// TestSimCheckCoversMechanisms checks the sweep actually exercises the
// machinery the invariants guard: across the -short seed range the
// scenarios must include multi-node clusters, queued controllers, fault
// injection, cleaners and kills.
func TestSimCheckCoversMechanisms(t *testing.T) {
	var multi, queued, faulty, cleaner, kills, lossy, flappy, capped, reclaim, chaos bool
	for seed := uint64(1); seed <= 64; seed++ {
		cfg := deriveConfig(seed)
		multi = multi || cfg.Nodes > 1
		queued = queued || cfg.Machine.UDMA.QueueDepth > 0
		faulty = faulty || cfg.Inject.Enabled()
		cleaner = cleaner || cfg.Cleaner
		kills = kills || cfg.Kills > 0
		lossy = lossy || cfg.Fault.Enabled()
		flappy = flappy || cfg.Fault.FlapPeriod > 0
		capped = capped || cfg.NIC.NIPTCapacity > 0
		reclaim = reclaim || cfg.NIC.Reliability.IdleReclaimAge > 0
		chaos = chaos || cfg.Crash.Enabled()
	}
	for name, ok := range map[string]bool{
		"multi-node": multi, "queued": queued, "fault-inject": faulty,
		"cleaner": cleaner, "kills": kills, "lossy-wire": lossy, "link-flap": flappy,
		"bounded-nipt": capped, "idle-reclaim": reclaim, "node-crash": chaos,
	} {
		if !ok {
			t.Errorf("seed sweep never produced a %s scenario", name)
		}
	}
}
