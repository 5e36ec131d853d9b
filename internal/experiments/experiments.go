// Package experiments contains one driver per table/figure reproduced
// from the paper and per extension (E1–E18; see DESIGN.md). Each driver
// builds the machines it needs, runs the workload, and returns a Result
// whose tables and series are what `shrimpsim -exp` prints and whose
// Checks assert the paper's shape (who wins, where the knees are).
package experiments

import (
	"errors"
	"fmt"
	"sort"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/loadgen"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/sweep"
	"shrimp/internal/workload"
)

// Check is one shape assertion against the paper.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Paper  string // what the paper reports, quoted for the reader
	Tables []*stats.Table
	Series []*stats.Series
	Checks []Check
	Notes  []string
	// Metrics holds machine-readable headline numbers (bandwidth,
	// latency percentiles, delivery counts) keyed by a short name —
	// what `shrimpsim -exp … -json` emits for regression tracking.
	Metrics map[string]float64
}

func (r *Result) check(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// metric records one headline number under a short machine-readable key.
func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// checkReproduces reruns the trial that produced base at workers 1 and
// at workers 4 and checks that both reproduce its fingerprint exactly;
// noun names the trial in the checks ("trial", "churn trial", …).
func (r *Result) checkReproduces(noun string, base *loadgen.Result, rerun func(workers int) (*loadgen.Result, error)) error {
	again, err := rerun(1)
	if err != nil {
		return err
	}
	wide, err := rerun(4)
	if err != nil {
		return err
	}
	r.check("same seed reproduces the "+noun+" exactly",
		base.Fingerprint() == again.Fingerprint(),
		"%016x vs %016x", base.Fingerprint(), again.Fingerprint())
	r.check("workers 1 and 4 produce identical "+noun+"s",
		base.Fingerprint() == wide.Fingerprint(),
		"%016x vs %016x", base.Fingerprint(), wide.Fingerprint())
	return nil
}

// Passed reports whether every check passed.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Runner produces a Result.
type Runner func() (*Result, error)

var registry = map[string]struct {
	title string
	run   Runner
}{
	"e1":  {"Figure 8: deliberate-update bandwidth vs message size", RunFig8},
	"e2":  {"Section 8: UDMA transfer initiation cost (≈2.8 µs)", RunInitiationCost},
	"e3":  {"Section 1: traditional DMA overhead on a HIPPI-class channel", RunHIPPIOverhead},
	"e4":  {"Sections 2–3: initiation cost breakdown, kernel DMA vs UDMA", RunInitiationComparison},
	"e5":  {"Section 9: memory-mapped FIFO (PIO) vs UDMA", RunPIOvsUDMA},
	"e6":  {"Section 7: multi-page transfers with hardware queueing", RunQueueing},
	"e7":  {"Section 6 (I1): context-switch Inval under device sharing", RunContextSwitch},
	"e8":  {"Section 6 (I4): page pinning vs UDMA remap guard under paging", RunPinningVsGuard},
	"e9":  {"Section 8: NIPT translation and capacity", RunNIPT},
	"e10": {"Section 8: four-node prototype, aggregate bandwidth", RunPrototype},
	"e11": {"Extension: automatic update vs deliberate update", RunAutoVsDeliberate},
	"e12": {"Extension: fault injection and per-transfer error recovery", RunFaultInjection},
	"e13": {"Extension: lossy wire, reliable delivery — goodput and latency vs loss", RunLossyWire},
	"e14": {"Extension: parallel simulation — serial vs parallel wall-clock speedup", RunParallelSpeedup},
	"e15": {"Extension: open-loop serving — offered-rate sweep and SLO readout", RunServe},
	"e16": {"Extension: connection churn — goodput and tails vs NIPT cache capacity", RunChurn},
	"e17": {"Extension: crash–restart chaos — availability dips and time-to-recover", RunChaos},
	"e18": {"Extension: routed fabric at scale — 64-node mesh/torus link contention", RunScaleOut},
}

// sweepWorkers is how many host goroutines the sweeps inside experiments
// may use: e12's fault-rate and e13's loss-rate curves, e15's
// regime × rate grid, e16's capacity sweep and e17's crash schedules.
// Default 1 keeps the historical serial behavior; shrimpsim's -workers
// flag raises it. Results are identical at any value — each trial
// builds its own simulator and the sweep returns results in input
// order — only wall-clock time changes.
var sweepWorkers = 1

// SetSweepWorkers sets the sweep parallelism (values < 1 mean serial).
func SetSweepWorkers(n int) {
	if n < 1 {
		n = 1
	}
	sweepWorkers = n
}

// fanOut runs n independent trials on the sweep workers and returns
// their results in input order, or the first error in input order.
func fanOut[T any](n int, trial func(i int) (T, error)) ([]T, error) {
	type result struct {
		v   T
		err error
	}
	outs := sweep.Run(n, sweepWorkers, func(i int) result {
		v, err := trial(i)
		return result{v, err}
	})
	vals := make([]T, n)
	for i, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
		vals[i] = out.v
	}
	return vals, nil
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	return ids
}

// Title returns an experiment's one-line description.
func Title(id string) (string, bool) {
	e, ok := registry[id]
	return e.title, ok
}

// Run executes one experiment by id.
func Run(id string) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return e.run()
}

// --- shared helpers ---------------------------------------------------------

// runOn spawns fn as the only process on a standalone node (one with
// no backplane; a cluster runs through runSender) and drives the kernel
// to completion.
func runOn(n *machine.Node, name string, fn func(p *kernel.Proc) error) error {
	var procErr error
	n.Kernel.Spawn(name, func(p *kernel.Proc) {
		procErr = fn(p)
	})
	if err := n.Kernel.Run(sim.Forever); err != nil {
		return fmt.Errorf("experiments: kernel run: %w", err)
	}
	return procErr
}

// runSender spawns fn as process "sender" on node 0 and runs the whole
// cluster for up to 5e9 cycles: every node's windows, then the hardware
// drain that lands the last packets and receive DMAs.
func runSender(c *cluster.Cluster, fn func(p *kernel.Proc) error) error {
	var procErr error
	c.Nodes[0].Kernel.Spawn("sender", func(p *kernel.Proc) {
		procErr = fn(p)
	})
	if err := c.Run(5_000_000_000); err != nil {
		return err
	}
	return procErr
}

// errStopSender is what a Sender's Done returns to end that sender early
// on purpose; runSenders does not count it as a failure.
var errStopSender = errors.New("experiments: sender stopped")

// runSenders spawns senders[i] (nil: node i only receives) as process
// "sender<i>" on node i, then calls after(i) when after is set, runs the
// cluster for up to limit cycles and returns the first sender error in
// node order. end is the cycle at which the last sender returned, read
// from its own node's clock: where the software ends and the hardware's
// delivery tail begins.
func runSenders(c *cluster.Cluster, limit sim.Cycles, senders []*workload.Sender, after func(node int)) (end sim.Cycles, err error) {
	errs := make([]error, len(senders))
	ends := make([]sim.Cycles, len(senders))
	for i, s := range senders {
		if s == nil {
			continue
		}
		c.Nodes[i].Kernel.Spawn(fmt.Sprintf("sender%d", i), func(p *kernel.Proc) {
			if _, _, err := s.Run(p); !errors.Is(err, errStopSender) {
				errs[i] = err
			}
			ends[i] = p.Now()
		})
		if after != nil {
			after(i)
		}
	}
	if err := c.Run(limit); err != nil {
		return 0, err
	}
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("sender %d: %w", i, err)
		}
		end = max(end, ends[i])
	}
	return end, nil
}

// mbps converts (bytes, cycles) into MB/s under the given cost model.
func mbps(costs *sim.CostModel, bytes int, cycles sim.Cycles) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bytes) / costs.Seconds(cycles) / 1e6
}
