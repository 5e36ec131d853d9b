package loadgen

import (
	"errors"
	"fmt"

	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
)

// TrialConfig is a self-contained trial: the load shape plus the
// machine regime it runs against.
type TrialConfig struct {
	Config

	// Workers is the cluster's host parallelism; any value yields the
	// same Result.Fingerprint.
	Workers int
	// Window is the lockstep horizon step (default 2000 cycles — well
	// under the retransmit timeout so ACKs never look late).
	Window sim.Cycles
	// RAMFrames per node (default 128).
	RAMFrames int
	// Limit bounds the run (default 2e9 cycles); hitting it is an error.
	Limit sim.Cycles

	// Fault perturbs the wire (lossy regime); the NIC reliability layer
	// is always armed, so a clean trial is simply a zero plan.
	Fault interconnect.FaultPlan
	// Inject wraps every NIC in device.Faulty at the plan's rates
	// (faulty regime); see cluster.InjectPlan.
	Inject cluster.InjectPlan

	// Topology declares the routed fabric (mesh/torus, width, per-link
	// capacity); the zero value is the near-square mesh at the
	// host-interface rate. See interconnect.Topology.
	Topology interconnect.Topology

	// Retry overrides the server send retry policy.
	Retry udmalib.RetryPolicy
	// Metrics mirrors driver instruments into a registry (optional).
	Metrics *telemetry.Registry

	// RetxTimeout is the NIC's base retransmit timeout (default 100_000
	// cycles — far above the saturated ACK RTT, so a clean wire never
	// resends spuriously). Crash/MTTR experiments lower it so peers of a
	// dead node reach the retry cap within the trial's span.
	RetxTimeout sim.Cycles
	// RelMaxRetries caps consecutive retransmit timeouts before a link
	// is declared broken (0 = the NIC default, 8).
	RelMaxRetries int

	// Crash schedules whole-node crash–restart faults (chaos regime);
	// see cluster.CrashPlan. The driver respawns a rebooted node's
	// serving processes and folds the outage into the availability
	// readout (Result.Crashes, Dips, DownClasses).
	Crash cluster.CrashPlan

	// NIPTCapacity bounds the on-board NIPT cache over the host-memory
	// backing table (0 = unbounded, the pre-cache behavior). Misses pay
	// a seeded refill on simulated time; NIPTRefillJitter widens the
	// refill cost draw.
	NIPTCapacity     int
	NIPTRefillJitter sim.Cycles
	// IdleReclaimAge ages idle per-destination reliability state into
	// the free pools at lockstep barriers (0 = never reclaim).
	IdleReclaimAge sim.Cycles
}

func (tc TrialConfig) withDefaults() TrialConfig {
	tc.Config = tc.Config.withDefaults()
	if tc.Window == 0 {
		tc.Window = 2000
	}
	if tc.RAMFrames == 0 {
		tc.RAMFrames = 128
	}
	if tc.Limit == 0 {
		tc.Limit = 2_000_000_000
	}
	if tc.RetxTimeout == 0 {
		tc.RetxTimeout = 100_000
	}
	return tc
}

// RunTrial builds a cluster for the regime, binds a freshly built plan
// to it, and runs the cluster to completion with the driver's barrier
// hooks: PublishControl before every Step, the driver's error check
// after it. It returns the aggregated SLO readout; a trial that reaches
// Limit fails with an error wrapping cluster.ErrLimit. A trial with
// fewer than two nodes or a negative rate is refused before anything
// is built.
func RunTrial(tc TrialConfig) (*Result, error) {
	tc = tc.withDefaults()
	switch {
	case tc.Nodes < 2:
		return nil, fmt.Errorf("loadgen: %d nodes (need >= 2 to serve remote traffic)", tc.Nodes)
	case tc.Rate < 0:
		return nil, fmt.Errorf("loadgen: offered rate %g msgs/Mcycle is negative", tc.Rate)
	}
	plan := BuildPlan(tc.Config)
	cl := cluster.New(cluster.Config{
		Nodes:    tc.Nodes,
		Topology: tc.Topology,
		Machine: machine.Config{
			RAMFrames: tc.RAMFrames,
			Kernel:    kernel.Config{Quantum: 2000},
		},
		NIC: nic.Config{
			NIPTPages:        plan.NIPTEntries(),
			PIOWindow:        true,
			NIPTCapacity:     tc.NIPTCapacity,
			NIPTRefillJitter: tc.NIPTRefillJitter,
			NIPTSeed:         tc.Seed,
			// Reliable delivery is always armed: a serving system that
			// silently loses messages has no meaningful SLO. The default
			// retransmit timeout sits far above the saturated ACK RTT
			// (multi-page bursts queue tens of thousands of cycles of
			// wire time ahead of an ACK) so a clean wire never resends
			// spuriously — loss recovery then shows up where a serving
			// system feels it, in the sojourn tail.
			Reliability: nic.ReliabilityConfig{
				Enabled:        true,
				RetxTimeout:    tc.RetxTimeout,
				MaxRetries:     tc.RelMaxRetries,
				IdleReclaimAge: tc.IdleReclaimAge,
			},
		},
		Crash:   tc.Crash,
		Window:  tc.Window,
		Workers: tc.Workers,
		Inject:  tc.Inject,
		Fault:   tc.Fault,
		Metrics: tc.Metrics,
	})
	defer cl.Shutdown()
	dr := NewDriver(plan, cl, DriverOptions{Retry: tc.Retry, Metrics: tc.Metrics})

	err := cl.RunHooks(tc.Limit, cluster.Hooks{
		BeforeStep: func(uint64) { dr.PublishControl() },
		AfterStep: func(_ uint64, _ bool, stepErr error) (bool, error) {
			if stepErr != nil {
				return false, fmt.Errorf("loadgen: %w", stepErr)
			}
			return false, dr.Err()
		},
	})
	switch {
	case errors.Is(err, cluster.ErrLimit):
		return nil, fmt.Errorf("loadgen: trial still running at the %d-cycle limit (offered rate too high to ever drain?): %w", tc.Limit, err)
	case errors.Is(err, kernel.ErrDeadlock):
		return nil, fmt.Errorf("loadgen: cluster deadlocked mid-trial: %w", err)
	case err != nil:
		return nil, err
	}
	if tc.Metrics != nil {
		cl.PublishRollup()
	}
	return dr.Finish()
}
