package loadgen

import (
	"errors"
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// DriverOptions tunes a Driver bound to an existing cluster.
type DriverOptions struct {
	// Retry is the send retry policy for UDMA classes (zero value takes
	// a generous budget that rides out credit-window stalls).
	Retry udmalib.RetryPolicy
	// Metrics mirrors the driver's sojourn histograms, arrival/outcome
	// counters and queue-depth gauges into a telemetry registry (nil =
	// off; the driver keeps its own instruments either way).
	Metrics *telemetry.Registry
}

// fifo is one per-destination queue: pacer appends at the tail, the
// destination's server pops at head. Both live on the same node, so the
// kernel's coroutine scheduling serializes every access.
type fifo struct {
	items []Arrival
	head  int
}

// nodeState is everything node-local: mid-window, only processes of
// that node touch it, which is what makes the driver safe (and
// bit-exact) at any cluster worker count.
type nodeState struct {
	queues    []fifo // indexed by destination node
	pacerDone bool
	depthNow  int
	maxDepth  int
	lastSeq   map[int]int // per-flow last served Seq

	pendingPfns []uint32 // receiver's export awaiting barrier publication

	// nextArr is the pacer's progress through the node's arrival
	// schedule. It lives here, not in the pacer's stack, so the pacer a
	// crash kills can be respawned to resume exactly where it stopped —
	// the open-loop clients keep offering load to a crashed node.
	nextArr int

	arrivals       [NumClasses]int
	delivered      [NumClasses]int
	failed         [NumClasses]int
	deliveredBytes [NumClasses]uint64
	downDelivered  [NumClasses]int // deliveries whose arrival fell in a crash span
	orderViol      int
	retries        uint64 // udmalib-level initiation retries + resends
	lastDone       sim.Cycles
	samples        []Sample

	err error
}

func (ns *nodeState) fail(err error) {
	if ns.err == nil {
		ns.err = err
	}
}

// Driver binds a Plan to a live cluster: it spawns the serving
// processes (receiver, pacer, per-destination servers, sampler) on
// every node and owns the barrier-published control state. The owner of
// the cluster's run loop must call PublishControl at every lockstep
// barrier — exactly where simcheck publishes its own cross-node
// control — and Finish once the cluster has drained.
type Driver struct {
	Plan *Plan

	cl   *cluster.Cluster
	opts DriverOptions

	nodes []*nodeState
	hist  [NumClasses]*telemetry.Histogram // sojourn cycles, atomic
	mhist [NumClasses]*telemetry.Histogram // registry mirror (nil-safe)

	// Barrier-written, window-read control flags: processes only ever
	// read these mid-window, PublishControl only ever writes them when
	// no worker is running.
	published   []bool
	windowReady bool
	stopRecv    bool
	ctlErr      error

	// Churn mode: receiver exports parked per node until every window is
	// known, then one NIPT entry per flow is installed in a single
	// barrier pass (flowsPublished latches that it happened once).
	windows        [][]uint32
	flowsPublished bool

	// Crash awareness (availability.go): down mirrors the cluster's
	// crash state as of the last barrier; a down→up transition respawns
	// the node's serving processes. spans is the barrier-refreshed copy
	// of the cluster's crash events, read mid-window by servers to
	// attribute sojourns to outages.
	down     []bool
	spans    []cluster.CrashEvent
	respawns int
	histDown [NumClasses]*telemetry.Histogram // sojourns of crash-span arrivals

	work []*kernel.Proc // every non-receiver process
}

// NewDriver attaches a plan to a cluster and spawns the serving
// processes. The cluster's NIC must be configured with PIOWindow and at
// least Plan.NIPTEntries() NIPT pages.
func NewDriver(plan *Plan, cl *cluster.Cluster, opts DriverOptions) *Driver {
	if len(cl.Nodes) != plan.Cfg.Nodes {
		panic(fmt.Sprintf("loadgen: plan wants %d nodes, cluster has %d", plan.Cfg.Nodes, len(cl.Nodes)))
	}
	if opts.Retry.MaxAttempts == 0 {
		opts.Retry = udmalib.RetryPolicy{MaxAttempts: 12, Backoff: 512}
	}
	dr := &Driver{Plan: plan, cl: cl, opts: opts}
	dr.published = make([]bool, plan.Cfg.Nodes)
	dr.windows = make([][]uint32, plan.Cfg.Nodes)
	dr.down = make([]bool, plan.Cfg.Nodes)
	for c := 0; c < NumClasses; c++ {
		dr.hist[c] = &telemetry.Histogram{}
		dr.histDown[c] = &telemetry.Histogram{}
		dr.mhist[c] = opts.Metrics.Histogram("loadgen_sojourn_cycles",
			telemetry.L("class", Class(c).String()))
	}
	for i := 0; i < plan.Cfg.Nodes; i++ {
		ns := &nodeState{
			queues:  make([]fifo, plan.Cfg.Nodes),
			lastSeq: make(map[int]int),
		}
		dr.nodes = append(dr.nodes, ns)
		if opts.Metrics != nil {
			opts.Metrics.Scope(telemetry.L("node", fmt.Sprint(i))).CounterFunc("loadgen_arrivals",
				func() uint64 { return uint64(ns.nextArr) })
		}
	}
	for i := range dr.nodes {
		dr.spawnNode(i)
	}
	return dr
}

// spawnNode spawns one node's full serving complement: receiver, pacer,
// per-destination servers, sampler. Called once per node at NewDriver
// and again by PublishControl when a crashed node reboots — all the
// node-local progress state (queues, nextArr, lastSeq) lives in
// nodeState, so the respawned processes resume where the killed ones
// stopped.
func (dr *Driver) spawnNode(node int) {
	k := dr.cl.Nodes[node].Kernel
	k.Spawn(fmt.Sprintf("recv%d", node), dr.receiverBody(node))
	dr.work = append(dr.work,
		k.Spawn(fmt.Sprintf("pacer%d", node), dr.pacerBody(node)))
	for dst := 0; dst < dr.Plan.Cfg.Nodes; dst++ {
		if dst == node {
			continue
		}
		dr.work = append(dr.work,
			k.Spawn(fmt.Sprintf("serve%d-%d", node, dst), dr.serverBody(node, dst)))
	}
	dr.work = append(dr.work,
		k.Spawn(fmt.Sprintf("sample%d", node), dr.samplerBody(node)))
}

// receiverBody pins this node's receive window and parks the frame
// numbers for barrier publication into every sender's NIPT — incoming
// deliberate updates then land with no CPU involvement, exactly as on
// SHRIMP. It idles until PublishControl stops it.
func (dr *Driver) receiverBody(node int) func(p *kernel.Proc) {
	return func(p *kernel.Proc) {
		ns := dr.nodes[node]
		cfg := dr.Plan.Cfg
		buf, err := p.Alloc(cfg.WindowPages * addr.PageSize)
		if err != nil {
			ns.fail(fmt.Errorf("loadgen: node %d receive window alloc: %w", node, err))
			return
		}
		pfns, err := udmalib.ExportBuffer(dr.cl.Nodes[node].Kernel, p, buf, cfg.WindowPages)
		if err != nil {
			ns.fail(fmt.Errorf("loadgen: node %d export: %w", node, err))
			return
		}
		ns.pendingPfns = pfns
		p.SleepWhile(2000, func() bool { return !dr.stopRecv })
	}
}

// pacerBody walks this node's precomputed arrival schedule, sleeping on
// simulated time to each arrival instant and appending the arrival to
// its destination queue. It never waits for service — the whole point
// of the open loop — so at saturation the queues simply grow.
func (dr *Driver) pacerBody(node int) func(p *kernel.Proc) {
	return func(p *kernel.Proc) {
		ns := dr.nodes[node]
		schedule := dr.Plan.Arrivals[node]
		// Resume from ns.nextArr: a respawned pacer (the node crashed and
		// rebooted) walks the same schedule from where the kill hit it —
		// an arrival past its instant enqueues immediately, modeling the
		// clients that kept sending into the outage. The Sleep is the
		// only kill point in the loop, so the enqueue block is atomic and
		// no arrival is ever double-enqueued.
		for ns.nextArr < len(schedule) {
			ar := schedule[ns.nextArr]
			if now := p.Now(); now < ar.At {
				p.Sleep(ar.At - now)
			}
			fl := dr.Plan.Flows[ar.Flow]
			q := &ns.queues[fl.Dst]
			q.items = append(q.items, ar)
			ns.nextArr++
			ns.arrivals[fl.Class]++
			ns.depthNow++
			if ns.depthNow > ns.maxDepth {
				ns.maxDepth = ns.depthNow
			}
		}
		ns.pacerDone = true
	}
}

// serverBody drains one (source node, destination) FIFO queue: pop the
// head arrival, ship it by its flow's class, and record the sojourn —
// scheduled arrival to send completion, so time spent queued behind a
// saturated NIC is charged where a serving system would feel it.
func (dr *Driver) serverBody(node, dst int) func(p *kernel.Proc) {
	return func(p *kernel.Proc) {
		ns := dr.nodes[node]
		cfg := dr.Plan.Cfg
		d, err := udmalib.Open(p, dr.cl.Dev(node), true)
		if err != nil {
			ns.fail(fmt.Errorf("loadgen: node %d open nic: %w", node, err))
			return
		}
		defer func() { ns.retries += d.Stats().Retries }()
		large := ClassLarge.Size(cfg.WindowPages)
		buf, err := p.Alloc(large)
		if err != nil {
			ns.fail(fmt.Errorf("loadgen: node %d server buffer: %w", node, err))
			return
		}
		if err := p.WriteBuf(buf, workload.Payload(large, byte(node*16+dst+1))); err != nil {
			ns.fail(fmt.Errorf("loadgen: node %d server fill: %w", node, err))
			return
		}
		pioFirst, _, _ := dr.cl.NICs[node].PIOWindow()
		pioBase := d.Base() + addr.VAddr(pioFirst*addr.PageSize)
		entryBase := uint32(dst * cfg.WindowPages)

		// A crash can kill this server mid-send, after the arrival was
		// popped but before its outcome was recorded. Deferred cleanups
		// run on the kill unwind, so the in-flight message is charged to
		// the failed column — queued arrivals stay in the (host-memory)
		// FIFO for the respawned server, but the one on the wire died
		// with the node.
		inflight := -1
		defer func() {
			if inflight >= 0 {
				ns.failed[inflight]++
			}
		}()

		q := &ns.queues[dst]
		// The two waits below poll on simulated time. Each condition is
		// exactly the one under which the loop would take the same
		// branch again, so SleepWhile repeats just that branch's Sleep.
		queueEmpty := func() bool { return q.head == len(q.items) && !ns.pacerDone }
		windowPending := func() bool {
			return q.head != len(q.items) && !dr.windowReady && dr.ctlErr == nil
		}
		for {
			if q.head == len(q.items) {
				if ns.pacerDone {
					return
				}
				p.SleepWhile(500, queueEmpty)
				continue
			}
			if !dr.windowReady {
				if dr.ctlErr != nil {
					return
				}
				p.SleepWhile(1000, windowPending)
				continue
			}
			ar := q.items[q.head]
			q.head++
			ns.depthNow--
			fl := dr.Plan.Flows[ar.Flow]
			if last, seen := ns.lastSeq[ar.Flow]; (seen && ar.Seq != last+1) || (!seen && ar.Seq != 0) {
				ns.orderViol++
			}
			ns.lastSeq[ar.Flow] = ar.Seq

			entry := entryBase + uint32(ar.Seq%cfg.WindowPages)
			if fl.Class == ClassLarge {
				entry = entryBase // multi-page: span the window from its base
			}
			if cfg.Churn {
				// Every flow ships through its own single-page window:
				// the entry index is the flow id.
				entry = uint32(ar.Flow)
			}
			size := dr.Plan.MsgSize(fl.Class)
			inflight = int(fl.Class)
			var serr error
			switch fl.Class {
			case ClassSmall:
				// Spread PIO bursts across the window page, 64B apart.
				off := uint32(ar.Seq%63) * 64
				serr = pioSend(p, pioBase, entry, off, size/4, uint32(ar.Flow)<<8)
			default:
				serr = d.SendRetry(buf, udmalib.WindowOff(entry, 0), size, dr.opts.Retry)
			}
			inflight = -1
			now := p.Now()
			switch {
			case serr == nil:
				ns.delivered[fl.Class]++
				ns.deliveredBytes[fl.Class] += uint64(size)
				dr.hist[fl.Class].Observe(uint64(now - ar.At))
				dr.mhist[fl.Class].Observe(uint64(now - ar.At))
				if dr.inDown(ar.At) {
					ns.downDelivered[fl.Class]++
					dr.histDown[fl.Class].Observe(uint64(now - ar.At))
				}
				if now > ns.lastDone {
					ns.lastDone = now
				}
			case transferFailure(serr):
				// The message is lost to its flow but the system keeps
				// serving — exactly what the failed count is for.
				ns.failed[fl.Class]++
			default:
				ns.fail(fmt.Errorf("loadgen: node %d flow %d: %w", node, ar.Flow, serr))
				return
			}
		}
	}
}

// samplerBody records this node's queue depth and NIC pressure counters
// on a fixed simulated-time cadence — the time series the SLO readout
// plots saturation from.
func (dr *Driver) samplerBody(node int) func(p *kernel.Proc) {
	return func(p *kernel.Proc) {
		ns := dr.nodes[node]
		gauge := dr.opts.Metrics.Gauge("loadgen_queue_depth", telemetry.L("node", fmt.Sprint(node)))
		for {
			p.Sleep(sampleEvery)
			st := dr.cl.NICs[node].Stats()
			done := 0
			for c := 0; c < NumClasses; c++ {
				done += ns.delivered[c]
			}
			ns.samples = append(ns.samples, Sample{
				At:           p.Now(),
				Depth:        ns.depthNow,
				CreditStalls: st.CreditStalls,
				Retransmits:  st.Retransmits,
				Done:         done,
			})
			gauge.Set(int64(ns.depthNow))
			if ns.pacerDone && ns.depthNow == 0 {
				return
			}
		}
	}
}

// pioSend pushes one small message through the NIC's memory-mapped FIFO
// window: destination register, data words, launch. Fire-and-forget, as
// on the Section 9 baseline — completion means the packet left the
// board, and the reliability sublayer (when armed) carries it from
// there.
func pioSend(p *kernel.Proc, pioBase addr.VAddr, entry, off uint32, words int, tag uint32) error {
	if err := p.Store(pioBase+nic.PIORegDest, entry<<addr.PageShift|off); err != nil {
		return err
	}
	for w := 0; w < words; w++ {
		if err := p.Store(pioBase+nic.PIORegData, tag+uint32(w)*0x9E3779B9); err != nil {
			return err
		}
	}
	return p.Store(pioBase+nic.PIORegLaunch, 1)
}

// transferFailure reports whether err is a per-message delivery failure
// (retry budget exhausted, or a hard transfer error) rather than a
// driver bug.
func transferFailure(err error) bool {
	return errors.As(err, new(*udmalib.RetryExhaustedError)) ||
		errors.As(err, new(*udmalib.HardError))
}

// PublishControl performs the driver's cross-node control plane. It
// must be called at lockstep barriers only, when no worker goroutine is
// running: receiver windows parked mid-window are mapped into every
// sender's NIPT here, and the receiver stop flag is raised once all
// serving work has exited — both ordered identically at every worker
// count.
func (dr *Driver) PublishControl() {
	if dr.ctlErr != nil {
		dr.stopRecv = true
		return
	}
	// Crash transitions first (availability.go): a node that went down
	// retracts its publication so the respawned receiver's fresh export
	// is republished; a node that came back up gets its serving
	// processes respawned.
	dr.syncCrashState()
	allPublished := true
	for r, ns := range dr.nodes {
		if dr.published[r] {
			continue
		}
		if ns.pendingPfns == nil {
			allPublished = false
			continue
		}
		if dr.Plan.Cfg.Churn {
			// Flow entries need every destination window at once; park
			// the export until the last receiver reports in.
			dr.windows[r] = ns.pendingPfns
			if dr.flowsPublished {
				// Post-reboot republication: the flow population was
				// already installed once, so only the entries aimed at
				// this node's (fresh) window need rewriting.
				if err := dr.publishFlowEntries(r); err != nil {
					dr.ctlErr = err
					dr.stopRecv = true
					return
				}
			}
		} else {
			base := uint32(r * dr.Plan.Cfg.WindowPages)
			for s := range dr.nodes {
				if s == r {
					continue
				}
				if err := udmalib.MapSendWindow(dr.cl.NICs[s], base, r, ns.pendingPfns); err != nil {
					dr.ctlErr = fmt.Errorf("loadgen: publish node %d window into sender %d: %w", r, s, err)
					dr.stopRecv = true
					return
				}
			}
		}
		dr.published[r] = true
	}
	if allPublished {
		if dr.Plan.Cfg.Churn && !dr.flowsPublished {
			if err := dr.publishFlowEntries(-1); err != nil {
				dr.ctlErr = err
				dr.stopRecv = true
				return
			}
			dr.flowsPublished = true
		}
		dr.windowReady = true
	}
	if !dr.stopRecv && dr.workDone() {
		dr.stopRecv = true
	}
}

// publishFlowEntries installs one NIPT entry per flow on its source
// NIC — entry index == flow id, pointing at one frame of the
// destination's exported window. The backing table thus spans the whole
// flow population (thousands of short-lived mappings under churn) while
// a bounded NIPT cache chases only the live working set. dst < 0
// installs every flow's entry (once, when the last window is exported);
// dst >= 0 rewrites only the entries aimed at that node's freshly
// exported window after a reboot. Runs at a barrier, in flow order:
// identical at every worker count.
func (dr *Driver) publishFlowEntries(dst int) error {
	for f, fl := range dr.Plan.Flows {
		if dst >= 0 && fl.Dst != dst {
			continue
		}
		pfns := dr.windows[fl.Dst]
		e := nic.NIPTEntry{Valid: true, DestNode: fl.Dst, DestPFN: pfns[f%len(pfns)]}
		if err := dr.cl.NICs[fl.Src].SetNIPT(uint32(f), e); err != nil {
			return fmt.Errorf("loadgen: install flow %d entry on node %d: %w", f, fl.Src, err)
		}
	}
	return nil
}

// workDone reports whether every pacer, server and sampler has exited
// (receivers excluded — they are what the answer stops). A node that is
// currently down never counts as done: its killed processes have
// exited, but the reboot will respawn them to finish the queued work.
func (dr *Driver) workDone() bool {
	for i := range dr.down {
		if dr.down[i] {
			return false
		}
	}
	for _, p := range dr.work {
		if !p.Exited() {
			return false
		}
	}
	return true
}

// Err surfaces the first hard error, in deterministic node order.
func (dr *Driver) Err() error {
	if dr.ctlErr != nil {
		return dr.ctlErr
	}
	for _, ns := range dr.nodes {
		if ns.err != nil {
			return ns.err
		}
	}
	return nil
}
