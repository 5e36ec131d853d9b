package cluster

import (
	"errors"
	"math"

	"shrimp/internal/sim"
)

// InjectPlan is the device fault model, the paper's "memory system
// errors": every node's NIC is wrapped in a device.Faulty whose
// CheckTransfer rejects with probability RejectRate and whose DMA
// reads and writes fail at completion with probability FailRate. Each
// node draws from its own RNG stream, derived from Seed and the node
// ID, so nodes do not fault in lockstep. The zero plan is off.
type InjectPlan struct {
	Seed       uint64
	RejectRate float64
	FailRate   float64
}

// Enabled reports whether the plan can ever inject a fault.
func (p InjectPlan) Enabled() bool { return p.RejectRate > 0 || p.FailRate > 0 }

// CrashPlan is the node crash–restart fault model: whole-node failures
// on a seeded schedule over simulated time, composing with the wire's
// FaultPlan and the device-level InjectPlan. Crash times are drawn
// from an exponential distribution with mean MTBF (the classic
// availability model); each crash picks a uniform node, powers it off
// for MTTR cycles, then reboots it.
//
// Determinism: the plan is applied only at lockstep barriers, after
// Backplane.Flush and before any worker runs — the same publication
// point as every other cross-node control action — and all randomness
// flows from Seed through a private RNG that no simulation path shares.
// An armed plan whose first crash lies beyond the run is therefore
// bit-identical to no plan at all, which is exactly what e17's
// "ample MTTR == no-crash" fingerprint check pins down.
type CrashPlan struct {
	// Seed roots the crash schedule's RNG stream.
	Seed uint64
	// MTBF is the mean time between crashes in cycles (exponential
	// inter-crash gaps). Zero disables the plan.
	MTBF sim.Cycles
	// MTTR is how long a crashed node stays down before rebooting
	// (default 100_000 cycles when the plan is enabled).
	MTTR sim.Cycles
	// FirstAt offsets the whole schedule: no crash fires before it.
	// Setting it past the run's span arms the machinery without ever
	// firing — the no-crash-equality control.
	FirstAt sim.Cycles
	// MaxCrashes caps the total crashes fired. Zero = unlimited.
	MaxCrashes int
}

// Enabled reports whether the plan can ever fire.
func (p CrashPlan) Enabled() bool { return p.MTBF > 0 }

// CrashEvent records one crash–reboot cycle for availability readouts.
// DownAt is the barrier time the crash took effect — the scheduled draw
// may be earlier when the cluster skipped a quiet stretch, but the node
// was demonstrably alive until this barrier. UpAt is zero while the
// node is still down.
type CrashEvent struct {
	Node   int
	DownAt sim.Cycles
	UpAt   sim.Cycles
}

// CrashStats aggregates the plan's outcomes.
type CrashStats struct {
	// Crashes is the number of crash events fired.
	Crashes uint64
	// DowntimeCycles sums each node's actual down span (DownAt→UpAt;
	// open spans are not included until the reboot fires).
	DowntimeCycles sim.Cycles
	// RecoveryLagCycles sums, over completed reboots, how far past the
	// scheduled MTTR expiry the barrier that performed the reboot was —
	// the orchestration latency on top of the configured repair time.
	RecoveryLagCycles sim.Cycles
}

// errNodeCrash is the machine-check reason handed to the kernel.
var errNodeCrash = errors.New("cluster: node crashed (chaos plan)")

// crashState is the running schedule.
type crashState struct {
	plan      CrashPlan
	rng       *sim.RNG
	nextAt    sim.Cycles
	fired     int
	downUntil []sim.Cycles // 0 = up; else scheduled reboot time
	events    []CrashEvent
	open      []int // per node: index+1 into events of the open span, 0 = none
	// freshBoot counts reboots fired at the latest barrier that no driver
	// has had a publish round to observe yet. While nonzero the cluster
	// refuses to report AllIdle: the reboot may be the only thing left
	// (every process killed by a whole-cluster outage), and draining now
	// would end the run before the driver can respawn the node's work.
	freshBoot int
	stats     CrashStats
}

func newCrashState(p CrashPlan, nodes int) *crashState {
	if p.MTTR <= 0 {
		p.MTTR = 100_000
	}
	cs := &crashState{
		plan:      p,
		rng:       sim.NewRNG(p.Seed ^ 0xC7A5_4_9E57A27),
		downUntil: make([]sim.Cycles, nodes),
		open:      make([]int, nodes),
	}
	cs.nextAt = p.FirstAt + cs.expGap()
	return cs
}

// expGap draws one exponential inter-crash gap (mean MTBF, min 1).
func (cs *crashState) expGap() sim.Cycles {
	g := sim.Cycles(-math.Log(1-cs.rng.Float64()) * float64(cs.plan.MTBF))
	if g < 1 {
		g = 1
	}
	return g
}

// applyCrashReboot runs the schedule up to the barrier time. Called by
// Step after Backplane.Flush and before any worker runs; reboots fire
// before new crashes so a node whose MTTR expired this barrier is up
// before the next crash draw can pick it again.
func (c *Cluster) applyCrashReboot() {
	cs := c.crash
	if cs == nil {
		return
	}
	now := c.MinNow()
	cs.freshBoot = 0 // last barrier's reboots have had their publish round
	for i := range cs.downUntil {
		if cs.downUntil[i] != 0 && now >= cs.downUntil[i] {
			c.rebootNode(i, now)
		}
	}
	for cs.nextAt <= now && (cs.plan.MaxCrashes == 0 || cs.fired < cs.plan.MaxCrashes) {
		node := cs.rng.Intn(len(c.Nodes))
		cs.nextAt += cs.expGap()
		if cs.downUntil[node] != 0 {
			continue // already down; the draw is consumed either way
		}
		c.crashNode(node, now)
	}
}

// crashNode powers node i off: the backplane drops its links, the NIC
// wipes its volatile state into the crash ledgers, and the kernel
// machine-checks and kills every process.
func (c *Cluster) crashNode(i int, now sim.Cycles) {
	cs := c.crash
	cs.fired++
	cs.stats.Crashes++
	until := now + cs.plan.MTTR
	if until <= now {
		until = now + 1
	}
	cs.downUntil[i] = until
	cs.events = append(cs.events, CrashEvent{Node: i, DownAt: now})
	cs.open[i] = len(cs.events)
	c.Backplane.SetNodeDown(i, true)
	c.NICs[i].Crash()
	c.Nodes[i].Kernel.Crash(errNodeCrash)
}

// rebootNode powers node i back on and closes its crash event.
func (c *Cluster) rebootNode(i int, now sim.Cycles) {
	cs := c.crash
	cs.freshBoot++
	cs.downUntil[i] = 0
	c.Backplane.SetNodeDown(i, false)
	c.NICs[i].Reboot()
	c.Nodes[i].Kernel.Reboot()
	if idx := cs.open[i]; idx != 0 {
		ev := &cs.events[idx-1]
		ev.UpAt = now
		cs.open[i] = 0
		cs.stats.DowntimeCycles += now - ev.DownAt
		scheduled := ev.DownAt + cs.plan.MTTR
		if now > scheduled {
			cs.stats.RecoveryLagCycles += now - scheduled
		}
	}
}

// NodeDown reports whether node i is currently crashed.
func (c *Cluster) NodeDown(i int) bool {
	return c.crash != nil && c.crash.downUntil[i] != 0
}

// CrashEvents returns a copy of the crash–reboot record so far (open
// spans have UpAt == 0).
func (c *Cluster) CrashEvents() []CrashEvent {
	if c.crash == nil {
		return nil
	}
	out := make([]CrashEvent, len(c.crash.events))
	copy(out, c.crash.events)
	return out
}

// CrashStats returns the plan's aggregate outcomes.
func (c *Cluster) CrashStats() CrashStats {
	if c.crash == nil {
		return CrashStats{}
	}
	return c.crash.stats
}
