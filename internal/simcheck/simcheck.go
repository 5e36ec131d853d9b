// Package simcheck is the deterministic simulation checker: it
// generates randomized multi-node scenarios from a seed — interleaved
// UDMA transfers, context switches, paging pressure, faulty-device
// injection, PIO traffic, process kills — and audits the paper's four
// kernel invariants (plus end-to-end byte conservation and monotonic
// simulated time) after every lockstep window. Because every source of
// nondeterminism flows from sim.RNG and the event clocks, any failure
// reproduces exactly from its seed:
//
//	go test ./internal/simcheck -run TestSimCheck -simcheck.seed=N
//
// The auditor observes only: it reads kernel frame tables, page tables
// and controller reference counts between windows (when no process is
// mid-instruction) and never advances a clock, so checked and
// unchecked runs are cycle-identical.
package simcheck

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/sweep"
	"shrimp/internal/telemetry"
	"shrimp/internal/trace"
)

// Violation is one detected invariant breach.
type Violation struct {
	Node      int
	Step      int    // lockstep window index (-1: before/after stepping)
	Invariant string // "I1".."I4", "conservation", "memory", "refcount", ...
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("node %d step %d: %s: %s", v.Node, v.Step, v.Invariant, v.Detail)
}

// maxViolations stops a run after this many findings; one broken
// invariant tends to trip the auditor every window.
const maxViolations = 8

// Options tunes a checker run.
type Options struct {
	// Hooks deliberately break the kernel under test — the checker's own
	// tests use them to prove the auditor catches each violation class.
	Hooks kernel.TestHooks
	// Override mutates the seed-derived scenario configuration before
	// the cluster is built (bias tests toward specific pressure).
	Override func(*ScenarioConfig)
	// Workers sets cluster.Config.Workers: how many host goroutines run
	// node windows in parallel. Any value yields the same fingerprint,
	// violations, metrics and traces as Workers=1 — the tentpole
	// invariant TestSimCheckWorkerEquivalence holds over seeds.
	Workers int
	// Metrics attaches a telemetry registry to the scenario's cluster
	// (nil = instruments off). Used by the parallel-determinism tests to
	// compare snapshots across worker counts.
	Metrics *telemetry.Registry
}

// Report is the outcome of one seeded run.
type Report struct {
	Seed       uint64
	Cfg        ScenarioConfig
	Steps      int // lockstep windows executed
	Violations []Violation
	// Trail is the event-ring slice of TrailNode captured at the first
	// violation — the compact repro context a builder reads first.
	Trail     []trace.Event
	TrailNode int
	// Fingerprint digests final clocks and hardware/kernel counters;
	// two runs of the same seed must produce the same fingerprint.
	Fingerprint uint64
	// TraceSummaries holds each node's trace.Summary at end of run —
	// per-kind lifetime event counts, compared across worker counts by
	// the parallel-determinism tests.
	TraceSummaries []string
}

// Failed reports whether any violation was detected.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// ReproCommand is the one-command reproduction for this seed.
func (r *Report) ReproCommand() string {
	return fmt.Sprintf("go test ./internal/simcheck -run TestSimCheck -simcheck.seed=%d", r.Seed)
}

// String renders the report; for failures it includes every violation,
// the event trail and the repro command.
func (r *Report) String() string {
	var b strings.Builder
	if !r.Failed() {
		fmt.Fprintf(&b, "simcheck seed %d: ok (%d nodes, %d steps, fp %016x)",
			r.Seed, r.Cfg.Nodes, r.Steps, r.Fingerprint)
		return b.String()
	}
	fmt.Fprintf(&b, "simcheck seed %d: FAIL (%d violations in %d steps)\n",
		r.Seed, len(r.Violations), r.Steps)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if len(r.Trail) > 0 {
		fmt.Fprintf(&b, "trail (node %d, last %d events):\n", r.TrailNode, len(r.Trail))
		for _, e := range r.Trail {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	fmt.Fprintf(&b, "repro: %s", r.ReproCommand())
	return b.String()
}

// Run executes one seeded scenario under the online auditor and
// returns its report.
func Run(seed uint64, opts Options) *Report {
	s := buildScenario(seed, opts)
	defer s.cl.Shutdown()

	// The scenario is a set of barrier hooks on cluster.Run's loop, whose
	// re-based horizons and skip-ahead keep no-op windows from eating
	// into the MaxSteps budget. A nil return means drained unless
	// afterStep stopped the run first.
	var stopped bool
	err := s.cl.RunHooks(sim.Forever, cluster.Hooks{
		BeforeStep: s.beforeStep,
		AfterStep: func(stepErr error) (bool, error) {
			stopped = s.afterStep(stepErr)
			return stopped, nil
		},
	})
	switch {
	case errors.Is(err, kernel.ErrDeadlock):
		// Nothing ran and nothing is parked mid-flight: a round that
		// makes no progress is a deadlock exactly when no node has a
		// future event or overshot clock to wake to.
		s.fail(0, "liveness", "cluster deadlock: no progress and no pending events")
	case err == nil && !stopped:
		s.drained = true
		s.audit(s.step)
	}
	s.finalVerify()

	summaries := make([]string, len(s.tracers))
	for i, tr := range s.tracers {
		summaries[i] = tr.Summary()
	}
	return &Report{
		Seed:           seed,
		Cfg:            s.cfg,
		Steps:          int(s.cl.Rounds()),
		Violations:     s.violations,
		Trail:          s.trail,
		TrailNode:      s.trailNode,
		Fingerprint:    s.fingerprint(),
		TraceSummaries: summaries,
	}
}

// beforeStep is the scenario's pre-window barrier work: due kills, then
// cross-node control publication, then mid-window violation buffering.
func (s *scenario) beforeStep(round uint64) {
	s.step = int(round)
	s.runKills(s.step)
	s.publishControl()
	s.inStep = true
}

// afterStep is the post-window barrier work: merge the window's
// violations (a Step error is one more finding, not the end of the run),
// audit, and apply the stop rules. It reports whether the run must stop
// before the cluster drains.
func (s *scenario) afterStep(stepErr error) (stop bool) {
	s.inStep = false
	s.collect()
	if stepErr != nil {
		s.fail(0, "runtime", stepErr.Error())
	}
	s.audit(s.step)
	if s.serve != nil {
		if err := s.serve.Err(); err != nil {
			s.fail(0, "serve-error", err.Error())
			return true
		}
	}
	if s.capped() {
		return true
	}
	if s.cl.AllIdle() {
		return false // Run drains next
	}
	s.maybeStopReceivers()
	if s.step >= s.cfg.MaxSteps {
		s.fail(0, "liveness", fmt.Sprintf("no completion after %d windows", s.step))
		return true
	}
	return false
}

// Sweep runs count seeded scenarios (seeds first..first+count-1), up to
// workers at a time. Every run builds its own cluster, so runs share
// nothing and the parallelism is trivially safe; reports come back in
// seed order, so sweep output is byte-identical at any worker count.
// (opts.Workers parallelism *within* each run composes freely with
// this, but for throughput sweeps prefer one worker per seed.)
func Sweep(first uint64, count, workers int, opts Options) []*Report {
	return sweep.Run(count, workers, func(i int) *Report {
		return Run(first+uint64(i), opts)
	})
}

// fingerprint digests final simulated time and the counters of every
// layer; any divergence between two runs of one seed shows up here.
func (s *scenario) fingerprint() uint64 {
	h := fnv.New64a()
	for i, n := range s.cl.Nodes {
		fmt.Fprintf(h, "n%d clock=%d kstats=%+v ustats=%+v nic=%+v",
			i, n.Clock.Now(), n.Kernel.Stats(), n.UDMA.Stats(), s.cl.NICs[i].Stats())
		w, r := s.scratch[i].Counts()
		fmt.Fprintf(h, " scratch=%d/%d", w, r)
	}
	p, by, rp, rb := s.cl.Backplane.Stats()
	fmt.Fprintf(h, " net=%d/%d/%d/%d fault=%+v crash=%+v", p, by, rp, rb,
		s.cl.Backplane.FaultStats(), s.cl.CrashStats())
	return h.Sum64()
}
