// Package cluster assembles a multi-node SHRIMP machine: N nodes, each
// with its own clock and kernel, a network interface per node, and one
// routing backplane.
//
// Execution model: every node simulates on its own clock. Cluster.Run
// drives the kernels in windowed lockstep — each node runs until its
// local clock reaches a global horizon, then the horizon advances. A
// packet launched in one window is therefore visible to its receiver no
// later than the next window, bounding cross-node causality error by
// the window size (default 10k cycles ≈ 170 µs; tighten for latency
// experiments). This keeps every node's CPU concurrently "running" in
// simulated time, which a single shared clock cannot do with
// coroutine-style processes.
//
// The lockstep windows are also the unit of host parallelism
// (Config.Workers): the backplane runs in deferred-mailbox mode, so a
// node's inbound packets for a window are fully determined before the
// window starts — Step flushes all mailboxes at the barrier, then runs
// each node's kernel+clock on a worker goroutine. Nothing a node does
// mid-window can touch another node's clock or event queue, and the
// barrier merge orders deliveries by (arrival, sender, sequence), so
// the simulation is bit-identical at every worker count (the
// conservative parallel discrete-event design; see DESIGN.md §11).
package cluster

import (
	"errors"
	"fmt"
	"strconv"

	"shrimp/internal/device"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/sweep"
	"shrimp/internal/telemetry"
)

// Config describes a cluster.
type Config struct {
	// Nodes is the node count (the paper's prototype had four).
	Nodes int
	// Machine configures each node. Its Costs also time the backplane,
	// and Config.Metrics replaces its Metrics.
	Machine machine.Config
	// NIC configures each node's network interface.
	NIC nic.Config
	// Window is the lockstep horizon step in cycles (default 10_000).
	Window sim.Cycles

	// Topology declares the routed fabric shape (mesh or torus), the
	// router-grid width, and the per-link capacity. The zero value is a
	// near-square mesh over Nodes with links at the host-interface rate
	// — the historical backplane. Topology.Nodes may be left zero (it
	// is filled from Nodes); setting it to anything else is a wiring
	// panic.
	Topology interconnect.Topology

	// Workers is the number of host goroutines that run node windows in
	// parallel (0 or 1 = serial, today's behavior). Any value produces
	// bit-identical simulations: cross-node packets sit in per-sender
	// mailboxes until the next barrier, so worker scheduling never
	// reorders a simulated event. Values above the node count buy
	// nothing. Note that cluster drivers which poke node state from the
	// test goroutine *between* Step calls are fine at any Workers, but
	// drivers that share host state across node processes mid-window
	// (e.g. a Go channel between processes on different nodes) are only
	// safe at Workers <= 1.
	Workers int

	// Inject wraps every node's NIC in a device.Faulty that rejects and
	// fails transfers at the plan's rates (crashplan.go), so the
	// fault-recovery experiments exercise the error paths under cluster
	// traffic. The zero plan leaves the NICs unwrapped.
	Inject InjectPlan

	// Fault perturbs the backplane itself: drops, duplicates, late
	// deliveries, corruption and link flaps, all derived from Fault.Seed
	// (see interconnect.FaultPlan). Enable NIC.Reliability alongside it
	// or packets will be silently lost.
	Fault interconnect.FaultPlan

	// Crash is the node crash–restart schedule (crashplan.go): seeded
	// whole-node failures applied at lockstep barriers, each wiping the
	// node's NIC and kernel state for MTTR cycles before a reboot.
	// Enable NIC.Reliability alongside it or in-flight packets toward a
	// down node are silently lost; with it, peers observe the crash as
	// a retry-cap DeliveryError.
	Crash CrashPlan

	// Metrics attaches a telemetry registry to every node (bus, DMA
	// engine, UDMA controller, kernel, NIC), each under its node=<id>
	// label, and hands each node's tracer to its NIC and backplane
	// slot. Nil leaves all instruments as free no-ops. Telemetry is a
	// pure observer: enabling it never changes simulated time, so runs
	// with and without it are byte-identical.
	Metrics *telemetry.Registry
}

// Cluster is the assembled machine.
type Cluster struct {
	Nodes     []*machine.Node
	NICs      []*nic.Interface
	Backplane *interconnect.Backplane
	// Faulty holds each node's injection wrapper when Config.Inject is
	// enabled (nil entries otherwise). The wrapper, not the raw NIC, is
	// what the node's device map decodes — use Dev to address the NIC
	// from udmalib.
	Faulty []*device.Faulty

	window  sim.Cycles
	workers int
	metrics *telemetry.Registry

	// Parallel-window machinery, allocated once at New so a steady-state
	// barrier round allocates nothing: the persistent worker pool, the
	// per-node scratch for clock snapshots / per-node horizons / window
	// results, and the prebuilt fan-out closure.
	pool     *sweep.Pool
	nows     []sim.Cycles
	horizons []sim.Cycles
	stepRes  []stepResult
	stepFn   func(int)

	// stepCap bounds per-link horizon extension. Run sets it to the run
	// limit so a lookahead-extended node never simulates past the time
	// the caller asked for; direct Step callers get sim.Forever (the
	// extension is still bounded by the other clocks plus one flight).
	stepCap sim.Cycles

	// crash is the running crash–restart schedule (nil = no plan).
	crash *crashState

	rounds uint64 // barrier rounds executed (Step calls)
}

// stepResult is one node's window outcome, written into the
// preallocated stepRes slot by the worker that ran the node.
type stepResult struct {
	moved bool
	err   error
}

// Dev returns the device attached to node i's proxy pages: the fault
// wrapper when injection is on, the raw NIC otherwise. udmalib.Open and
// MapDevice resolve devices by identity, so callers must use this
// handle rather than NICs[i] when Config.Inject is enabled.
func (c *Cluster) Dev(i int) device.Device {
	if c.Faulty[i] != nil {
		return c.Faulty[i]
	}
	return c.NICs[i]
}

// New builds and wires a cluster. The NIC occupies device-proxy pages
// starting at 0 on every node.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("cluster: %d nodes", cfg.Nodes))
	}
	costs := cfg.Machine.Costs
	if costs == nil {
		costs = machine.SHRIMP1996()
	}
	window := cfg.Window
	if window == 0 {
		window = 10_000
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	topo := cfg.Topology
	if topo.Nodes == 0 {
		topo.Nodes = cfg.Nodes
	} else if topo.Nodes != cfg.Nodes {
		panic(fmt.Sprintf("cluster: topology declares %d nodes but Config.Nodes is %d",
			topo.Nodes, cfg.Nodes))
	}
	c := &Cluster{
		Backplane: interconnect.New(costs, topo),
		window:    window,
		workers:   workers,
		metrics:   cfg.Metrics,
	}
	if cfg.Fault.Enabled() {
		c.Backplane.SetFaultPlan(cfg.Fault)
	}
	if cfg.Crash.Enabled() {
		c.crash = newCrashState(cfg.Crash, cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		mcfg := cfg.Machine
		mcfg.Costs = costs
		mcfg.Metrics = cfg.Metrics
		node := machine.New(i, mcfg)
		iface := nic.New(i, node.Clock, costs, node.RAM, node.Bus, c.Backplane, cfg.NIC)
		if node.Metrics != nil { // as machine.New: no counter closures when off
			iface.SetMetrics(node.Metrics)
		}
		iface.SetTracer(node.Tracer)
		c.Backplane.SetTracer(i, node.Tracer)
		var faulty *device.Faulty
		var dev device.Device = iface
		if cfg.Inject.Enabled() {
			faulty = device.NewFaulty(iface)
			faulty.InjectRates(sim.NewRNG(cfg.Inject.Seed^(uint64(i+1)*0x9E3779B97F4A7C15)),
				cfg.Inject.RejectRate, cfg.Inject.FailRate)
			dev = faulty
		}
		node.AttachDevice(dev, 0)
		c.Nodes = append(c.Nodes, node)
		c.NICs = append(c.NICs, iface)
		c.Faulty = append(c.Faulty, faulty)
	}
	c.pool = sweep.NewPool(workers)
	c.nows = make([]sim.Cycles, cfg.Nodes)
	c.horizons = make([]sim.Cycles, cfg.Nodes)
	c.stepRes = make([]stepResult, cfg.Nodes)
	c.stepFn = c.runNodeWindow
	c.stepCap = sim.Forever
	return c
}

// ErrLimit is returned by Run when the run limit is reached while some
// node still has work: the simulation stopped, it did not finish.
var ErrLimit = errors.New("cluster: run limit reached")

// Hooks plug a driver into Run's lockstep loop at the barrier, when no
// worker is running and node state is consistent. Either func may be
// nil. Build the value once per run: Run calls the funcs every round and
// allocates nothing itself.
type Hooks struct {
	// BeforeStep runs once the round's horizon is fixed, just before
	// Step: the place for cross-node control actions (window
	// publication, process kills). round is the 0-based Rounds() index
	// of the Step about to run.
	BeforeStep func(round uint64)
	// AfterStep runs right after Step with its result and owns the step
	// error: Run does not end on stepErr by itself when AfterStep is set.
	// A non-nil err ends the run with err; stop ends it with nil and
	// without draining.
	AfterStep func(round uint64, progress bool, stepErr error) (stop bool, err error)
}

// Run drives all nodes until every process on every node has exited,
// then drains the hardware and returns nil. If the clocks reach limit
// first, Run flushes the parked mail and returns ErrLimit. Per-node
// deadlocks are expected while a node waits for a packet another node
// has not sent yet; the run ends with kernel.ErrDeadlock only when no
// node has anything left that could ever run (NextRunnable finds
// nothing).
func (c *Cluster) Run(limit sim.Cycles) error { return c.RunHooks(limit, Hooks{}) }

// RunHooks is Run with a driver's barrier hooks; it is the one loop that
// calls Step.
//
// Each round re-bases the horizon on the furthest-behind clock —
// max(horizon, MinNow()) + window — instead of marching by fixed
// +window increments, so a processor that overshot its window (charge()
// yields only after the clock moves) is caught in one round rather than
// ceil(overshoot/window) empty barrier rounds. A round that still makes
// no progress skips the horizon straight to the next runnable time
// (earliest pending event, or an overshot clock), so sparse timelines —
// a retransmit timer 100k cycles out, a sleeping benchmark loop — cost
// one barrier instead of dozens of no-op flush/run/join cycles.
func (c *Cluster) RunHooks(limit sim.Cycles, h Hooks) error {
	c.stepCap = limit
	defer func() { c.stepCap = sim.Forever }()
	var horizon sim.Cycles
	for {
		base := c.MinNow()
		if horizon > base {
			base = horizon
		}
		horizon = base + c.window
		if horizon < base || horizon > limit {
			horizon = limit
		}
		round := c.rounds
		if h.BeforeStep != nil {
			h.BeforeStep(round)
		}
		progress, err := c.Step(horizon)
		if h.AfterStep != nil {
			if stop, err := h.AfterStep(round, progress, err); stop || err != nil {
				return err
			}
		} else if err != nil {
			return err
		}
		if c.AllIdle() {
			c.DrainHardware()
			return nil
		}
		if horizon >= limit {
			// The final window's sends are still parked in the outbox
			// mailboxes. Flush them onto the receiver clocks (without
			// running anything — limit is reached) so callers reading
			// NIC/backplane state after a limit-bounded run see every
			// in-flight packet accounted for.
			c.Backplane.Flush()
			return ErrLimit
		}
		if !progress {
			next := c.NextRunnable(horizon)
			if next == sim.Forever {
				return kernel.ErrDeadlock
			}
			if next > horizon {
				horizon = next - c.window // re-based to next+window at loop top
			}
		}
	}
}

// NextRunnable returns the earliest simulated time after `after` at
// which any node could do something: the earliest scheduled event on
// any clock, or the clock of a live (non-exited) node that has overshot
// `after` and is waiting for the horizon to catch up. sim.Forever means
// nothing can ever run again — the cluster is deadlocked (deferred mail
// does not count: callers flush before asking).
func (c *Cluster) NextRunnable(after sim.Cycles) sim.Cycles {
	next := sim.Forever
	for _, n := range c.Nodes {
		if at, ok := n.Clock.NextEventAt(); ok && at < next {
			next = at
		}
		if !n.Kernel.AllExited() {
			if now := n.Clock.Now(); now > after && now < next {
				next = now
			}
		}
	}
	// A crashed node's scheduled reboot is a future runnable too: without
	// it, a chaos schedule that downs every node at one barrier (all
	// processes killed, no events anywhere) would read as a deadlock and
	// the reboot barrier would never be reached. Exited kernels coast
	// their clocks to the horizon, so skipping the horizon to downUntil
	// is enough to carry simulated time across a whole-cluster outage.
	if at := c.NextReboot(); at < next {
		next = at
	}
	// A reboot fired at the last barrier but not yet observed by any
	// driver publish round is runnable immediately: the driver's next
	// barrier respawns the node's work, so there is always a "next thing"
	// one window out even when no event is scheduled anywhere.
	if c.crash != nil && c.crash.freshBoot > 0 {
		if at := after + 1; at < next {
			next = at
		}
	}
	return next
}

// NextReboot returns the earliest pending reboot time across crashed
// nodes, or sim.Forever when no node is down (or no plan is armed).
func (c *Cluster) NextReboot() sim.Cycles {
	next := sim.Forever
	if c.crash == nil {
		return next
	}
	for _, du := range c.crash.downUntil {
		if du != 0 && du < next {
			next = du
		}
	}
	return next
}

// Rounds returns the number of barrier rounds (Step calls) executed so
// far — the denominator for per-window overhead accounting, and what
// the no-op-window regression tests pin down.
func (c *Cluster) Rounds() uint64 { return c.rounds }

// Step runs one lockstep window. It is the parallel barrier: first
// every deferred cross-node delivery from earlier windows is flushed
// onto the receiver clocks (deterministic merge, see interconnect.
// Flush), fixing each node's inbound events for the window; then every
// node's kernel runs until its local clock reaches horizon (exited
// nodes coast so their hardware events still fire), with up to
// Config.Workers nodes running concurrently. Mid-window a node touches
// only its own clock, kernel, RAM and the backplane's per-sender
// outbox shard, so worker scheduling cannot perturb the simulation.
//
// Step reports whether any node's clock moved — Run ends the simulation
// when a whole round makes no progress and no events are pending.
// Drivers that interleave work between windows (invariant audits,
// process kills, control publication) do it through Run's Hooks rather
// than by calling Step themselves.
func (c *Cluster) Step(horizon sim.Cycles) (progress bool, err error) {
	c.rounds++
	c.Backplane.Flush()
	// Crash and reboot nodes at the barrier, after the flush (so mail
	// already launched toward the victim still merges onto its clock,
	// where the down guard swallows it into the crash ledger) and before
	// any worker runs — the schedule is a pure function of simulation
	// state, bit-identical at any worker count (crashplan.go).
	c.applyCrashReboot()
	// Reclaim idle reliability state at the barrier, after the flush and
	// before any worker runs: reclamation then observes barrier-consistent
	// quiescence on every board, keeping it — like every other cross-node
	// control action — bit-identical at any worker count (reclaim.go).
	for _, nic := range c.NICs {
		nic.ReclaimIdle()
	}
	c.computeHorizons(horizon)
	c.pool.Run(len(c.Nodes), c.stepFn)
	// Aggregate in node order so the reported error is deterministic.
	for i := range c.stepRes {
		if c.stepRes[i].moved {
			progress = true
		}
	}
	for i := range c.stepRes {
		if c.stepRes[i].err != nil {
			return progress, c.stepRes[i].err
		}
	}
	return progress, nil
}

// computeHorizons fills c.horizons with each node's window end: the
// global horizon, extended per node by the Chandy–Misra per-link bound
// — node i may run to min over senders j of (clock_j + LinkLookahead
// (j, i)) when that beats the global horizon, because no packet j
// launches this window can be timestamped for i any earlier (launch
// time ≥ clock_j, flight ≥ LinkLookahead). On large meshes this is what
// keeps a far corner of the machine from serializing on the slowest
// node: distance buys lookahead. The bound is computed at the barrier
// from barrier-visible clocks only, so it — and therefore the entire
// simulated schedule — is a pure function of simulation state,
// independent of worker count. stepCap (the Run limit) caps the
// extension so a bounded run never simulates past its limit.
func (c *Cluster) computeHorizons(base sim.Cycles) {
	for i, n := range c.Nodes {
		c.nows[i] = n.Clock.Now()
	}
	for i := range c.Nodes {
		bound := sim.Forever
		for j := range c.Nodes {
			if j == i {
				continue
			}
			b := c.nows[j] + c.Backplane.LinkLookahead(j, i)
			if b < c.nows[j] { // overflow: effectively unbounded
				b = sim.Forever
			}
			if b < bound {
				bound = b
			}
		}
		h := base
		if bound != sim.Forever && bound > c.stepCap {
			bound = c.stepCap
		}
		if bound != sim.Forever && bound > h {
			h = bound
		}
		c.horizons[i] = h
	}
}

// runNodeWindow runs node i's kernel+clock to its window horizon; it is
// the pool fan-out body, prebuilt at New so Step allocates nothing.
func (c *Cluster) runNodeWindow(i int) {
	n := c.Nodes[i]
	horizon := c.horizons[i]
	before := n.Clock.Now()
	err := n.Kernel.Run(horizon)
	if err != nil && !errors.Is(err, kernel.ErrDeadlock) {
		c.stepRes[i] = stepResult{err: fmt.Errorf("cluster: node %d: %w", n.ID, err)}
		return
	}
	if n.Kernel.AllExited() {
		// The node's software is done but its hardware may not
		// be: in-flight DMA completions launch packets, receive
		// DMAs land data other nodes are polling for. Let the
		// node's clock follow the horizon so those events fire.
		// Coasting over an empty event queue is not progress, though —
		// counting it as such would hide a stalled cluster behind one
		// exited node and defeat Run's no-op-window skip-ahead.
		at, ok := n.Clock.NextEventAt()
		n.Clock.AdvanceTo(horizon)
		c.stepRes[i] = stepResult{moved: ok && at <= horizon}
		return
	}
	c.stepRes[i] = stepResult{moved: n.Clock.Now() != before}
}

// Window returns the configured lockstep horizon step.
func (c *Cluster) Window() sim.Cycles { return c.window }

// DrainHardware fires every remaining scheduled event on every node
// (in-flight transfers, packets, receive DMAs, flush timers) once all
// software has exited. The nodes drain as one merged event loop: each
// round advances every clock to the globally-earliest pending event, so
// cross-node causality holds — a retransmit timer on one node cannot
// fire ahead of the ACK another node sends earlier in simulated time
// (a per-node RunUntilIdle sweep would run one node arbitrarily far
// ahead and make the reliability layer retransmit spuriously at drain).
// Each round first flushes the deferred mailboxes (an event fired
// during the drain may launch new packets, which park as mail until
// the next round). The drain itself is serial: it is not on the
// performance path, and the strict earliest-event-first order is what
// the reliability layer's timing proofs lean on.
func (c *Cluster) DrainHardware() {
	for {
		c.Backplane.Flush()
		next := sim.Forever
		for _, n := range c.Nodes {
			if at, ok := n.Clock.NextEventAt(); ok && at < next {
				next = at
			}
		}
		if next == sim.Forever {
			// No scheduled events anywhere and Flush just emptied the
			// mailboxes: nothing can ever fire again.
			return
		}
		for _, n := range c.Nodes {
			n.Clock.AdvanceTo(next)
		}
	}
}

// Shutdown kills all processes on all nodes and retires the worker
// pool. Stepping after Shutdown still works — the pool falls back to a
// serial loop — so teardown ordering is forgiving.
func (c *Cluster) Shutdown() {
	for _, n := range c.Nodes {
		n.Kernel.Shutdown()
	}
	c.pool.Close()
}

// MaxNow returns the furthest-ahead node clock — the cluster-wide
// elapsed time for aggregate-bandwidth arithmetic.
func (c *Cluster) MaxNow() sim.Cycles {
	var m sim.Cycles
	for _, n := range c.Nodes {
		if now := n.Clock.Now(); now > m {
			m = now
		}
	}
	return m
}

// MinNow returns the furthest-behind node clock — the base the next
// lockstep horizon is computed from.
func (c *Cluster) MinNow() sim.Cycles {
	m := sim.Forever
	for _, n := range c.Nodes {
		if now := n.Clock.Now(); now < m {
			m = now
		}
	}
	return m
}

// AllIdle reports whether every process on every node has exited. A
// crashed node awaiting its reboot is never idle — its driver will
// respawn work once the MTTR expires, so draining before the reboot
// barrier would end the run with offered work still unaccounted. The
// same holds for one barrier after the reboot fires (freshBoot): the
// driver observes down→up at its next publish round, which must happen
// before the run is allowed to drain.
func (c *Cluster) AllIdle() bool {
	if c.NextReboot() != sim.Forever {
		return false
	}
	if c.crash != nil && c.crash.freshBoot > 0 {
		return false
	}
	for _, n := range c.Nodes {
		if !n.Kernel.AllExited() {
			return false
		}
	}
	return true
}

// PublishRollup folds per-node hardware counters into cluster-level
// telemetry: per-node clock gauges plus unlabeled cluster totals for
// packets, payload bytes and receive drops. Call it after a run (it
// reads hardware state, so mid-run calls capture a mid-run snapshot).
// No-op without an attached registry.
func (c *Cluster) PublishRollup() {
	if c.metrics == nil {
		return
	}
	var pktsSent, bytesSent, pktsRecv, bytesRecv, drops uint64
	var retrans, retransBytes, creditStalls, deliveryFails uint64
	var niptHits, niptMisses, niptEvict, niptRefill, reclaims uint64
	for i, n := range c.Nodes {
		c.Nodes[i].Metrics.Gauge("node_clock_cycles").Set(int64(n.Clock.Now()))
		s := c.NICs[i].Stats()
		pktsSent += s.PacketsSent
		bytesSent += s.BytesSent
		pktsRecv += s.PacketsReceived
		bytesRecv += s.BytesReceived
		drops += s.RecvDrops
		retrans += s.Retransmits
		retransBytes += s.RetransBytes
		creditStalls += s.CreditStalls
		deliveryFails += s.DeliveryFailures
		niptHits += s.NIPTHits
		niptMisses += s.NIPTMisses
		niptEvict += s.NIPTEvictions
		niptRefill += s.NIPTRefillCycles
		reclaims += s.SenderReclaims + s.ReceiverReclaims
	}
	root := c.metrics.Scope()
	root.Gauge("cluster_nodes").Set(int64(len(c.Nodes)))
	root.Gauge("cluster_max_cycles").Set(int64(c.MaxNow()))
	root.Gauge("cluster_packets_sent").Set(int64(pktsSent))
	root.Gauge("cluster_bytes_sent").Set(int64(bytesSent))
	root.Gauge("cluster_packets_recv").Set(int64(pktsRecv))
	root.Gauge("cluster_bytes_recv").Set(int64(bytesRecv))
	root.Gauge("cluster_recv_drops").Set(int64(drops))
	root.Gauge("cluster_retransmits").Set(int64(retrans))
	root.Gauge("cluster_retrans_bytes").Set(int64(retransBytes))
	root.Gauge("cluster_credit_stalls").Set(int64(creditStalls))
	root.Gauge("cluster_delivery_failures").Set(int64(deliveryFails))
	root.Gauge("cluster_nipt_hits").Set(int64(niptHits))
	root.Gauge("cluster_nipt_misses").Set(int64(niptMisses))
	root.Gauge("cluster_nipt_evictions").Set(int64(niptEvict))
	root.Gauge("cluster_nipt_refill_cycles").Set(int64(niptRefill))
	root.Gauge("cluster_rel_reclaims").Set(int64(reclaims))
	fs := c.Backplane.FaultStats()
	root.Gauge("cluster_wire_drops").Set(int64(fs.Drops + fs.FlapDrops))
	root.Gauge("cluster_wire_dups").Set(int64(fs.Dups))
	root.Gauge("cluster_wire_corrupts").Set(int64(fs.Corrupts))
	// Routed-fabric link telemetry: one busy-cycles counter and one
	// queue-depth gauge per directed link that carried traffic, under
	// link{src,dst} labels, plus cluster totals. Like the rollup gauges,
	// each link counter reports its link as of this call. Reading
	// LinkStats is a pure observation — runs with and without metrics
	// stay byte-identical.
	var linkBusy, linkWait, linkPkts, linkPeak uint64
	for _, ls := range c.Backplane.LinkStats() {
		linkBusy += ls.BusyCycles
		linkWait += ls.WaitCycles
		linkPkts += ls.Packets
		if ls.PeakQueue > linkPeak {
			linkPeak = ls.PeakQueue
		}
		scope := c.metrics.Scope(
			telemetry.L("src", strconv.Itoa(ls.From)),
			telemetry.L("dst", strconv.Itoa(ls.To)))
		busy := ls.BusyCycles
		scope.CounterFunc("link_busy_cycles", func() uint64 { return busy })
		scope.Gauge("link_queue_depth").Set(int64(ls.PeakQueue))
	}
	root.Gauge("cluster_links_used").Set(int64(len(c.Backplane.LinkStats())))
	root.Gauge("cluster_link_busy_cycles").Set(int64(linkBusy))
	root.Gauge("cluster_link_wait_cycles").Set(int64(linkWait))
	root.Gauge("cluster_link_packets").Set(int64(linkPkts))
	root.Gauge("cluster_link_queue_peak").Set(int64(linkPeak))
	if c.crash != nil {
		var abandoned, crashDropped uint64
		for i := range c.NICs {
			s := c.NICs[i].Stats()
			abandoned += s.CrashAbandonedBytes
			crashDropped += s.CrashDropBytes
		}
		cs := c.crash.stats
		root.Gauge("cluster_crashes").Set(int64(cs.Crashes))
		root.Gauge("cluster_downtime_cycles").Set(int64(cs.DowntimeCycles))
		root.Gauge("cluster_recovery_lag_cycles").Set(int64(cs.RecoveryLagCycles))
		root.Gauge("cluster_crash_abandoned_bytes").Set(int64(abandoned))
		root.Gauge("cluster_crash_dropped_bytes").Set(int64(crashDropped + fs.CrashDroppedDataBytes))
	}
}
