package simcheck

import (
	"bytes"
	"errors"
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/device"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/loadgen"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
	"shrimp/internal/udmalib"
)

// ScenarioConfig is the seed-derived shape of one randomized run: the
// cluster's own Config plus the knobs of the scenario's process
// programs. Every field is exported so Options.Override can bias a test
// toward specific pressure (tiny RAM for eviction storms, deep queues
// for I4, a fast cleaner for I3) on any cluster knob.
//
// A backplane Fault plan also arms the NIC reliability sublayer to
// survive it; byte conservation is then asserted end-to-end across
// retransmission.
type ScenarioConfig struct {
	cluster.Config

	ProcsPerNode  int
	OpsPerProc    int
	DeviceLatency sim.Cycles // scratch-buffer transfer latency
	ScratchPages  uint32

	Cleaner       bool
	CleanerPeriod sim.Cycles

	Kills    int // processes killed mid-run (never receivers)
	MaxSteps int // liveness bound, in lockstep windows

	// Serve, when set, replaces the random per-process op programs with
	// the internal/loadgen open-loop driver: seeded Poisson arrivals
	// across per-destination FIFO flows (or, with Churn, short-lived
	// flows of one NIPT entry each), served over PIO and UDMA while the
	// auditor checks every invariant between windows. It is set only via
	// Options.Override — never drawn from the seed — so every existing
	// seed's scenario shape is untouched.
	Serve *loadgen.Config
}

// randomConfig draws a scenario shape from the master RNG. Ranges are
// chosen so every mechanism gets regular exercise: small RAM forces
// evictions against UDMA references (I4), non-zero quanta force context
// switches mid-sequence (I1), the cleaner clears dirty bits against
// live proxy mappings (I3), queue depths of 0 cover the basic machine.
// The draw order is fixed: a new draw goes after every existing one, so
// earlier fields keep their per-seed values.
func randomConfig(rng *sim.RNG) ScenarioConfig {
	var cfg ScenarioConfig
	cfg.Nodes = 1 + rng.Intn(3)
	cfg.Machine.RAMFrames = 48 + rng.Intn(65)
	cfg.Machine.UDMA.QueueDepth = []int{0, 2, 4, 8}[rng.Intn(4)]
	cfg.Machine.Kernel.Quantum = sim.Cycles(1200 + rng.Intn(2800))
	cfg.Window = sim.Cycles(4000 + rng.Intn(12000)) // lockstep horizon step = audit interval
	cfg.ProcsPerNode = 2 + rng.Intn(3)
	cfg.OpsPerProc = 3 + rng.Intn(6)
	cfg.DeviceLatency = []sim.Cycles{0, 50, 2000, 20000}[rng.Intn(4)]
	cfg.NIC.NIPTPages = 64
	cfg.MaxSteps = 60_000
	cfg.ScratchPages = uint32(2 * cfg.ProcsPerNode)
	if cfg.Machine.UDMA.QueueDepth > 0 && rng.Bool() {
		cfg.Machine.UDMA.SystemQueueDepth = 2
	}
	if rng.Intn(3) == 0 {
		cfg.Cleaner = true
		cfg.CleanerPeriod = sim.Cycles(30_000 + rng.Intn(90_000))
	}
	if rng.Intn(3) == 0 {
		cfg.Inject = cluster.InjectPlan{RejectRate: 0.02, FailRate: 0.02}
	}
	if rng.Intn(2) == 0 {
		cfg.Kills = rng.Intn(3)
	}
	if rng.Intn(3) == 0 {
		cfg.Fault = interconnect.FaultPlan{
			DropRate:    0.02 + 0.08*rng.Float64(),
			DupRate:     0.02,
			CorruptRate: 0.02,
			DelayRate:   0.05,
		}
		if rng.Bool() {
			cfg.Fault.FlapPeriod = sim.Cycles(20_000 + rng.Intn(40_000))
			cfg.Fault.FlapDown = sim.Cycles(2_000 + rng.Intn(4_000))
		}
	}
	// Bounded NIPT cache, and idle reliability state aged into the free
	// pools at barriers.
	if rng.Intn(3) == 0 {
		cfg.NIC.NIPTCapacity = 1 + rng.Intn(31)
	}
	if cfg.Fault.Enabled() && rng.Intn(2) == 0 {
		cfg.NIC.Reliability.IdleReclaimAge = sim.Cycles(20_000 + rng.Intn(60_000))
	}
	// A quarter of seeds get whole-node power loss.
	if rng.Intn(4) == 0 {
		cfg.Crash.MTBF = sim.Cycles(150_000 + rng.Intn(250_000))
		cfg.Crash.MTTR = sim.Cycles(30_000 + rng.Intn(90_000))
		cfg.Crash.MaxCrashes = 1 + rng.Intn(2)
	}
	// Routed fabric: a third of seeds wrap the mesh into a torus, and a
	// third throttle the fabric links below the host-interface rate so
	// link contention actually bites. Topology.Nodes stays zero; the
	// cluster fills it in.
	if rng.Intn(3) == 0 {
		cfg.Topology.Kind = interconnect.KindTorus
	}
	if rng.Intn(3) == 0 {
		cfg.Topology.LinkBytesPerCyc = 0.3 + 0.6*rng.Float64()
	}
	return cfg
}

// deriveConfig reports the scenario shape a seed produces, without
// building it — tests use it to assert the sweep's mechanism coverage.
func deriveConfig(seed uint64) ScenarioConfig {
	return randomConfig(sim.NewRNG(seed))
}

const (
	roleWorker = iota
	roleSender
	roleReceiver
)

type procInfo struct {
	node int
	p    *kernel.Proc
	role int
}

type killPlan struct {
	victim int // index into procs
	step   int
}

// remotePlan tracks one exported receive window: which frames the
// sender's NIPT names and what bytes the last *successful* send put in
// each page. A page whose send errored (fault injection) or whose
// sender was killed mid-transfer is tainted — its content is legally
// unpredictable — and excluded from final verification.
type remotePlan struct {
	senderNode, recvNode int
	pages                int
	pfns                 []uint32
	expect               [][]byte
	tainted              []bool
}

type touchRec struct {
	va      addr.VAddr
	pattern []byte
}

type scenario struct {
	seed    uint64
	cfg     ScenarioConfig
	opts    Options
	cl      *cluster.Cluster
	tracers []*trace.Tracer
	scratch []*device.Buffer
	// scratchFirst is each node's scratch device-proxy first page.
	scratchFirst []uint32

	step       int
	violations []Violation
	overflow   bool // violations beyond MaxViolations were dropped
	trail      []trace.Event
	trailNode  int

	// inStep is true while cluster workers are running a window; fail()
	// then buffers into the caller's per-node slice (procViol) instead
	// of the shared record, and collect() merges the buffers in node
	// order at the barrier — so the violation list is identical at every
	// worker count.
	inStep   bool
	procViol [][]Violation

	lastNow []sim.Cycles

	procs []procInfo
	kills []killPlan

	// serve is the open-loop load driver when cfg.Serve is set; it owns
	// the node processes and the barrier-published control state that
	// procs/remote/pendingPfns own in the randomized scenario.
	serve *loadgen.Driver

	remote *remotePlan
	// pendingPfns is the receiver's exported window awaiting barrier
	// publication: the receiver writes it mid-window (touching only its
	// own node), and publishControl() maps it into the *sender's* NIPT
	// at the next barrier, when no worker is running.
	pendingPfns []uint32
	windowReady bool
	stopRecv    bool
	drained     bool // DrainHardware ran: nothing is in flight anywhere
}

// fail records a violation. At a barrier (auditor, kill plan, final
// verification) it lands directly in the shared record; mid-window,
// when node processes run on parallel workers, it is buffered in the
// failing node's private slice and merged at the next barrier.
func (s *scenario) fail(node int, invariant, detail string) {
	v := Violation{Node: node, Step: s.step, Invariant: invariant, Detail: detail}
	if s.inStep {
		if len(s.procViol[node]) > s.opts.MaxViolations {
			return // already beyond what collect() could ever keep
		}
		s.procViol[node] = append(s.procViol[node], v)
		return
	}
	s.record(v)
}

// record appends one violation to the shared list, capturing the
// node's event trail on the first finding. Barrier-only.
func (s *scenario) record(v Violation) {
	if len(s.violations) >= s.opts.MaxViolations {
		s.overflow = true
		return
	}
	if len(s.violations) == 0 {
		s.trail = s.tracers[v.Node].Tail(24)
		s.trailNode = v.Node
	}
	s.violations = append(s.violations, v)
}

// collect merges the per-node mid-window violation buffers into the
// shared record, in node order — a deterministic sequence no matter
// which worker goroutine found what first.
func (s *scenario) collect() {
	for node := range s.procViol {
		for _, v := range s.procViol[node] {
			s.record(v)
		}
		s.procViol[node] = s.procViol[node][:0]
	}
}

func (s *scenario) capped() bool {
	return len(s.violations) >= s.opts.MaxViolations
}

// opError reports an unexpected operation error. With fault injection
// or a lossy wire on, hard errors are the scenario working as intended
// (injected faults, broken-link DeliveryErrors, credit-stall bounces)
// and are ignored; without them, any op error other than a queue-full
// refusal (a documented transient on the queued machine) is a finding.
func (s *scenario) opError(node int, what string, err error) {
	if err == nil || s.cfg.Inject.Enabled() || s.cfg.Fault.Enabled() || queueFull(err) {
		return
	}
	s.fail(node, "op-error", what+": "+err.Error())
}

// queueFull reports whether err is the controller refusing a transfer
// because its request queue is full — legal machine behavior the
// scenario must tolerate (the op's verification is skipped).
func queueFull(err error) bool {
	var he *udmalib.HardError
	return errors.As(err, &he) && he.Status.DeviceErr()&device.ErrQueueFull != 0
}

func buildScenario(seed uint64, opts Options) *scenario {
	rng := sim.NewRNG(seed)
	cfg := randomConfig(rng)
	if opts.Override != nil {
		opts.Override(&cfg)
	}
	// The wire and the crash schedule draw from their own seed streams,
	// decorrelated from the scenario-shape and per-process streams; the
	// crash stream is private to the plan, so arming it never perturbs
	// the simulation.
	if cfg.Fault.Enabled() {
		cfg.Fault.Seed = seed ^ 0xFA17_ED_B1_7
	}
	if cfg.Crash.Enabled() {
		cfg.Crash.Seed = seed ^ 0xC4A5_4ED0DE
		cfg.Crash.FirstAt = 30_000
	}
	var plan *loadgen.Plan
	if cfg.Serve != nil {
		// Serve-mode floors and defaults (the config is Override-set,
		// never seed-drawn): open-loop traffic needs at least two nodes,
		// and the NIPT must hold the plan's whole backing table — one
		// window per destination per sender, or in churn mode one entry
		// per flow, which is why the plan is built before the cluster.
		// The override's config is copied, never written.
		if cfg.Nodes < 2 {
			cfg.Nodes = 2
		}
		sc := *cfg.Serve
		sc.Nodes = cfg.Nodes
		sc.Seed = seed ^ 0x10ad_9e4 // decorrelated from shape draws
		if sc.Rate == 0 {
			sc.Rate = 150
		}
		if sc.Messages == 0 {
			sc.Messages = 120
		}
		if sc.Flows == 0 {
			sc.Flows = 256
		}
		if sc.WindowPages == 0 {
			sc.WindowPages = 2
		}
		if sc.Churn && sc.ActiveFlows == 0 {
			sc.ActiveFlows = 32
		}
		if sc.Churn && sc.MsgsPerFlow == 0 {
			sc.MsgsPerFlow = 2
		}
		cfg.Serve = &sc
		plan = loadgen.BuildPlan(sc)
		if need := plan.NIPTEntries(); cfg.NIC.NIPTPages < need {
			cfg.NIC.NIPTPages = need
		}
	}
	// Knobs no scenario draws: fixed values, the seed and the Options.
	cfg.NIC.PIOWindow = true
	cfg.NIC.NIPTRefillJitter = 16
	cfg.NIC.NIPTSeed = seed
	cfg.NIC.Reliability.Enabled = cfg.Fault.Enabled()
	cfg.Inject.Seed = seed
	cfg.Workers = opts.Workers
	cfg.Metrics = opts.Metrics
	s := &scenario{seed: seed, cfg: cfg, opts: opts, step: -1}
	s.cl = cluster.New(cfg.Config)
	s.procViol = make([][]Violation, cfg.Nodes)

	for i, n := range s.cl.Nodes {
		// A registry already gave the node a tracer; otherwise the
		// auditor attaches its own for failure trails.
		tr := n.Tracer
		if tr == nil {
			tr = trace.New(n.Clock, 512)
			n.SetTracer(tr)
			s.cl.NICs[i].SetTracer(tr)
			s.cl.Backplane.SetTracer(i, tr)
		}
		s.tracers = append(s.tracers, tr)
		s.lastNow = append(s.lastNow, n.Clock.Now())

		first := s.cl.NICs[i].Pages()
		scratch := device.NewBuffer(fmt.Sprintf("scratch%d", i), cfg.ScratchPages, 1, cfg.DeviceLatency)
		n.AttachDevice(scratch, first)
		s.scratch = append(s.scratch, scratch)
		s.scratchFirst = append(s.scratchFirst, first)

		n.Kernel.SetTestHooks(opts.Hooks)
		if cfg.Cleaner {
			n.Kernel.StartCleaner(cfg.CleanerPeriod)
		}
	}

	if cfg.Serve != nil {
		// The loadgen driver spawns every process (receivers, pacers,
		// servers, samplers) and parks its cross-node control for
		// publishControl, exactly like the randomized scenario's receiver
		// does. No kill plan: killing a pacer or server would strand its
		// queues and turn the liveness bound into a false failure.
		s.serve = loadgen.NewDriver(plan, s.cl, loadgen.DriverOptions{Metrics: opts.Metrics})
		return s
	}

	if cfg.Nodes >= 2 {
		s.remote = &remotePlan{
			senderNode: 0,
			recvNode:   cfg.Nodes - 1,
			pages:      2,
		}
		s.remote.expect = make([][]byte, s.remote.pages)
		s.remote.tainted = make([]bool, s.remote.pages)
	}

	for i, n := range s.cl.Nodes {
		for j := 0; j < cfg.ProcsPerNode; j++ {
			role := roleWorker
			if s.remote != nil && j == 0 {
				if i == s.remote.senderNode {
					role = roleSender
				} else if i == s.remote.recvNode {
					role = roleReceiver
				}
			}
			// Decorrelated per-process stream: every process draws its
			// op sequence independently of scenario-shape draws.
			prng := sim.NewRNG(seed ^ (uint64(i+1)<<20|uint64(j+1))*0x9E3779B97F4A7C15)
			p := n.Kernel.Spawn(fmt.Sprintf("n%dp%d", i, j), s.procBody(i, j, role, prng))
			s.procs = append(s.procs, procInfo{node: i, p: p, role: role})
		}
	}

	// Kill plan: victims drawn from non-receiver processes, fired at
	// early window boundaries while transfer activity is high.
	for k := 0; k < cfg.Kills; k++ {
		victim := rng.Intn(len(s.procs))
		if s.procs[victim].role == roleReceiver {
			continue
		}
		s.kills = append(s.kills, killPlan{victim: victim, step: 1 + rng.Intn(40)})
	}
	return s
}

// runKills fires the kill plan entries due at this step. Kills happen
// at window boundaries — between instructions, exactly when a real
// kernel's signal delivery would preempt the victim.
func (s *scenario) runKills(step int) {
	for _, kp := range s.kills {
		if kp.step != step {
			continue
		}
		pi := s.procs[kp.victim]
		if pi.p.Exited() {
			continue
		}
		s.cl.Nodes[pi.node].Kernel.Kill(pi.p)
		if pi.role == roleSender && s.remote != nil {
			// The sender may die mid-transfer: every window page's
			// content is now unpredictable.
			for j := range s.remote.tainted {
				s.remote.tainted[j] = true
			}
		}
	}
}

// maybeStopReceivers releases the receiver's polling loop once every
// other process has exited (no more senders can exist).
func (s *scenario) maybeStopReceivers() {
	if s.stopRecv {
		return
	}
	for _, pi := range s.procs {
		if pi.role != roleReceiver && !pi.p.Exited() {
			return
		}
	}
	s.stopRecv = true
}

// finalVerify runs the end-of-run conservation checks that need the
// cluster fully drained: every un-tainted exported page must hold
// exactly the bytes of the last successful remote send to it, and on a
// lossy wire every payload byte ever launched must be accounted for.
func (s *scenario) finalVerify() {
	s.auditWire()
	if s.serve != nil {
		s.serveVerify()
		return
	}
	rp := s.remote
	if rp == nil || rp.pfns == nil {
		return
	}
	if s.cl.NICs[rp.senderNode].Stats().DeliveryFailures > 0 {
		// The reliability layer gave up on some window at some point; a
		// "successful" Send only covers DMA into the board, so every
		// exported page's content is now legally unpredictable.
		for j := range rp.tainted {
			rp.tainted[j] = true
		}
	}
	if s.cl.CrashStats().Crashes > 0 {
		// A node lost power mid-run: in-flight packets were swallowed,
		// senders were killed mid-transfer and exported frames may have
		// been recycled through the reboot — page contents are legally
		// unpredictable everywhere.
		for j := range rp.tainted {
			rp.tainted[j] = true
		}
	}
	ram := s.cl.Nodes[rp.recvNode].RAM
	for j := 0; j < rp.pages; j++ {
		if rp.tainted[j] || rp.expect[j] == nil {
			continue
		}
		page, err := ram.Frame(rp.pfns[j])
		if err != nil {
			s.fail(rp.recvNode, "conservation", fmt.Sprintf("exported frame %d: %v", rp.pfns[j], err))
			continue
		}
		if !bytes.Equal(page, rp.expect[j]) {
			s.fail(rp.recvNode, "conservation",
				fmt.Sprintf("exported page %d (frame %d) differs from last successful send (first diff at %d)",
					j, rp.pfns[j], firstDiff(page, rp.expect[j])))
		}
	}
}

// serveVerify is finalVerify for serve mode: the load driver's own
// end-of-run books must balance — a hard driver error is a finding, and
// on a drained cluster every offered message must be delivered or
// typed-failed, in per-flow FIFO order, with failures only where the
// regime injects them.
func (s *scenario) serveVerify() {
	if err := s.serve.Err(); err != nil {
		s.fail(0, "serve-error", err.Error())
		return
	}
	if !s.drained {
		return // liveness already failed; mid-flight accounting is meaningless
	}
	res, err := s.serve.Finish()
	if err != nil {
		s.fail(0, "serve-error", err.Error())
		return
	}
	if res.Delivered+res.Failed != res.Messages {
		s.fail(0, "serve-accounting",
			fmt.Sprintf("%d delivered + %d failed != %d offered", res.Delivered, res.Failed, res.Messages))
	}
	if res.OrderViolations != 0 {
		s.fail(0, "serve-order", fmt.Sprintf("%d per-flow FIFO violations", res.OrderViolations))
	}
	if !s.cfg.Inject.Enabled() && !s.cfg.Fault.Enabled() && !s.cfg.Crash.Enabled() && res.Failed != 0 {
		s.fail(0, "serve-accounting", fmt.Sprintf("%d failures on a clean machine", res.Failed))
	}
	if res.NIPTHits+res.NIPTMisses != res.NIPTLookups {
		s.fail(0, "serve-accounting",
			fmt.Sprintf("nipt cache books: %d hits + %d misses != %d lookups",
				res.NIPTHits, res.NIPTMisses, res.NIPTLookups))
	}
	if s.cfg.NIC.NIPTCapacity == 0 && res.NIPTMisses != 0 {
		s.fail(0, "serve-accounting",
			fmt.Sprintf("%d misses on an unbounded NIPT", res.NIPTMisses))
	}
}

// auditWire asserts byte conservation end-to-end across retransmission:
// once the cluster is drained, every data payload byte launched into
// the backplane (first transmissions + retransmits + fabric-made
// copies) is either dropped on the wire by the plan, delivered to
// memory, discarded as a duplicate, dropped by CRC, dropped from a full
// reseq buffer, dropped for a bad address, or still parked in a reseq
// buffer of a dead epoch. Nothing double-counted, nothing silently
// lost.
func (s *scenario) auditWire() {
	if !s.cfg.Fault.Enabled() || !s.drained {
		return
	}
	_, wireBytes, _, wireRetransBytes := s.cl.Backplane.Stats()
	fs := s.cl.Backplane.FaultStats()
	var firstTx, retrans, recv, dup, corrupt, reseq, recvDrop, held, crashDrop uint64
	for i := range s.cl.Nodes {
		st := s.cl.NICs[i].Stats()
		firstTx += st.BytesSent
		retrans += st.RetransBytes
		recv += st.BytesReceived
		dup += st.DupBytes
		corrupt += st.CorruptBytes
		reseq += st.ReseqBytes
		recvDrop += st.RecvDropBytes
		held += s.cl.NICs[i].ReseqHeldBytes()
		crashDrop += st.CrashDropBytes
	}
	if firstTx+retrans != wireBytes {
		s.fail(0, "wire-conservation",
			fmt.Sprintf("NIC sent %d first-tx + %d retrans bytes but the wire carried %d",
				firstTx, retrans, wireBytes))
	}
	if retrans != wireRetransBytes {
		s.fail(0, "wire-conservation",
			fmt.Sprintf("NIC counted %d retrans bytes, backplane %d", retrans, wireRetransBytes))
	}
	// Crash terms: wire-carried bytes a node crash kept out of memory —
	// swallowed at the backplane while the destination was down
	// (fs.CrashDroppedDataBytes), or ledgered on the dead board itself
	// (arrival at a down connector, wiped reseq buffers, receive DMAs
	// invalidated by the generation bump).
	launched := wireBytes + fs.DupDataBytes
	accounted := fs.DroppedDataBytes + fs.CrashDroppedDataBytes +
		recv + dup + corrupt + reseq + recvDrop + held + crashDrop
	if launched != accounted {
		s.fail(0, "wire-conservation",
			fmt.Sprintf("launched %d data bytes (wire %d + fabric dups %d) but accounted %d (plan-dropped %d + crash-wire-dropped %d + delivered %d + dup-dropped %d + crc-dropped %d + reseq-dropped %d + addr-dropped %d + reseq-held %d + crash-board-dropped %d)",
				launched, wireBytes, fs.DupDataBytes, accounted,
				fs.DroppedDataBytes, fs.CrashDroppedDataBytes, recv, dup, corrupt,
				reseq, recvDrop, held, crashDrop))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// patternBytes fills n bytes from a splitmix-style stream so every op's
// payload is unique and position-sensitive.
func patternBytes(tag uint64, n int) []byte {
	out := make([]byte, n)
	x := tag
	for i := range out {
		x += 0x9E3779B97F4A7C15
		z := x
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		out[i] = byte(z)
	}
	return out
}

// --- process programs -------------------------------------------------------

// procBody returns the coroutine for one scenario process. Everything
// it does is drawn from its private RNG, so the instruction stream for
// (seed, node, index) is fixed regardless of scheduling.
func (s *scenario) procBody(node, idx, role int, rng *sim.RNG) func(p *kernel.Proc) {
	return func(p *kernel.Proc) {
		if role == roleReceiver {
			s.receiverBody(node, p)
			return
		}

		d, err := udmalib.Open(p, s.scratch[node], true)
		if err != nil {
			s.opError(node, "open scratch", err)
			return
		}
		nd, err := udmalib.Open(p, s.cl.Dev(node), true)
		if err != nil {
			s.opError(node, "open nic", err)
			return
		}
		srcBuf, err := p.Alloc(2 * addr.PageSize)
		if err != nil {
			s.opError(node, "alloc", err)
			return
		}
		// Disjoint scratch pages per process: conservation checks must
		// never race a sibling's transfer to the same device page.
		myPage := uint32(2*idx) % s.cfg.ScratchPages

		var touched []touchRec
		for op := 0; op < s.cfg.OpsPerProc; op++ {
			pick := rng.Intn(100)
			switch {
			case role == roleSender && pick < 40:
				s.opRemoteSend(node, p, nd, srcBuf, rng)
			case pick < 55:
				s.opLocalSend(node, p, d, srcBuf, myPage, rng, false)
			case pick < 65:
				s.opLocalSend(node, p, d, srcBuf, myPage, rng, true)
			case pick < 75:
				s.opLocalRecv(node, p, d, srcBuf, myPage, rng)
			case pick < 85:
				if len(touched) < 3 {
					if rec, ok := s.opTouch(node, p, rng); ok {
						touched = append(touched, rec)
					}
				} else {
					p.Compute(sim.Cycles(200 + rng.Intn(3000)))
				}
			case pick < 90:
				p.Sleep(sim.Cycles(500 + rng.Intn(5000)))
			case pick < 94:
				s.opStatusProbe(node, p, srcBuf, rng)
			case pick < 97:
				s.opPIOPoke(node, p, nd, rng)
			default:
				s.opDMAWrite(node, p, srcBuf, myPage, rng)
			}
		}
		// Late re-verification: pages written long ago must still hold
		// their bytes after every eviction/page-in/transfer since — the
		// check that turns a broken I4 into a visible corruption.
		for _, rec := range touched {
			got, rerr := p.ReadBuf(rec.va, len(rec.pattern))
			if rerr != nil {
				s.opError(node, "re-read touched buffer", rerr)
				continue
			}
			if !bytes.Equal(got, rec.pattern) {
				s.fail(node, "memory",
					fmt.Sprintf("buffer %#x corrupted (first diff at %d)", uint32(rec.va), firstDiff(got, rec.pattern)))
			}
		}
	}
}

// receiverBody exports a pinned window for the sender's NIPT and then
// idles until the run winds down; incoming deliberate updates land in
// its frames with no CPU involvement, exactly as on SHRIMP.
func (s *scenario) receiverBody(node int, p *kernel.Proc) {
	rp := s.remote
	k := s.cl.Nodes[node].Kernel
	buf, err := p.Alloc(rp.pages * addr.PageSize)
	if err != nil {
		s.opError(node, "receiver alloc", err)
		return
	}
	pfns, err := udmalib.ExportBuffer(k, p, buf, rp.pages)
	if err != nil {
		s.opError(node, "export buffer", err)
		return
	}
	// Mapping the window writes the *sender's* NIPT — another node's
	// hardware, off-limits mid-window. Park the export for barrier
	// publication (publishControl) instead; senders poll windowReady.
	s.pendingPfns = pfns
	for !s.stopRecv {
		p.Sleep(1500)
	}
}

// publishControl performs cross-node control-plane actions parked by
// process bodies. Called at window barriers only, when no worker is
// running: the receiver's exported window is mapped into the sender's
// NIPT here, so the NIPT write is ordered identically at every worker
// count.
func (s *scenario) publishControl() {
	if s.serve != nil {
		s.serve.PublishControl()
		return
	}
	rp := s.remote
	if rp == nil || s.windowReady || s.pendingPfns == nil {
		return
	}
	if err := udmalib.MapSendWindow(s.cl.NICs[rp.senderNode], 0, rp.recvNode, s.pendingPfns); err != nil {
		s.opError(rp.recvNode, "map send window", err)
		s.pendingPfns = nil
		return
	}
	rp.pfns = s.pendingPfns
	s.windowReady = true
}

// opLocalSend transfers a random payload to this process's private
// scratch pages and verifies the device holds exactly those bytes.
func (s *scenario) opLocalSend(node int, p *kernel.Proc, d *udmalib.Dev,
	srcBuf addr.VAddr, myPage uint32, rng *sim.RNG, queued bool) {
	n := 64 + rng.Intn(2*addr.PageSize-64)
	pattern := patternBytes(rng.Uint64(), n)
	if err := p.WriteBuf(srcBuf, pattern); err != nil {
		s.opError(node, "send fill", err)
		return
	}
	devOff := myPage * addr.PageSize
	var err error
	if queued && s.cfg.Machine.UDMA.QueueDepth > 0 {
		err = d.QueuedSend(srcBuf, devOff, n)
	} else {
		err = d.Send(srcBuf, devOff, n)
	}
	if err != nil {
		s.opError(node, "send", err)
		return
	}
	if got := s.scratch[node].Bytes(int(devOff), n); !bytes.Equal(got, pattern) {
		s.fail(node, "conservation",
			fmt.Sprintf("scratch page %d has wrong bytes after %dB send (first diff at %d)",
				myPage, n, firstDiff(got, pattern)))
	}
}

// opLocalRecv runs the device→memory direction and verifies the bytes
// that arrived in process memory.
func (s *scenario) opLocalRecv(node int, p *kernel.Proc, d *udmalib.Dev,
	dstBuf addr.VAddr, myPage uint32, rng *sim.RNG) {
	n := 64 + rng.Intn(addr.PageSize-64)
	devOff := (myPage + 1) * addr.PageSize
	pattern := patternBytes(rng.Uint64(), n)
	s.scratch[node].SetBytes(int(devOff), pattern)
	if err := d.Recv(dstBuf, devOff, n); err != nil {
		s.opError(node, "recv", err)
		return
	}
	got, err := p.ReadBuf(dstBuf, n)
	if err != nil {
		s.opError(node, "recv read-back", err)
		return
	}
	if !bytes.Equal(got, pattern) {
		s.fail(node, "conservation",
			fmt.Sprintf("recv of %dB from scratch page %d delivered wrong bytes (first diff at %d)",
				n, myPage+1, firstDiff(got, pattern)))
	}
}

// opTouch allocates fresh pages and fills them — paging pressure that
// forces evictions against whatever the UDMA hardware holds.
func (s *scenario) opTouch(node int, p *kernel.Proc, rng *sim.RNG) (touchRec, bool) {
	pages := 1 + rng.Intn(3)
	va, err := p.Alloc(pages * addr.PageSize)
	if err != nil {
		s.opError(node, "touch alloc", err)
		return touchRec{}, false
	}
	pattern := patternBytes(rng.Uint64(), pages*addr.PageSize)
	if err := p.WriteBuf(va, pattern); err != nil {
		s.opError(node, "touch fill", err)
		return touchRec{}, false
	}
	got, err := p.ReadBuf(va, len(pattern))
	if err != nil {
		s.opError(node, "touch read-back", err)
		return touchRec{}, false
	}
	if !bytes.Equal(got, pattern) {
		s.fail(node, "memory", fmt.Sprintf("freshly written buffer %#x reads back wrong", uint32(va)))
		return touchRec{}, false
	}
	return touchRec{va: va, pattern: pattern}, true
}

// opStatusProbe exercises the state machine's reject edges: an
// abandoned Store (cleared by the next context switch's Inval — I1), a
// mem→mem BadLoad, and a plain status poll.
func (s *scenario) opStatusProbe(node int, p *kernel.Proc, srcBuf addr.VAddr, rng *sim.RNG) {
	if err := p.Store(addr.VProxy(srcBuf), uint32(64+rng.Intn(256))); err != nil {
		s.opError(node, "probe store", err)
		return
	}
	if rng.Bool() {
		// Abandon the sequence: the DestLoaded latch must be cleared by
		// I1 before any other process's LOAD can consume it.
		return
	}
	if _, err := p.Load(addr.VProxy(srcBuf + addr.PageSize)); err != nil {
		s.opError(node, "probe badload", err)
		return
	}
	if _, err := p.Load(addr.VProxy(srcBuf)); err != nil {
		s.opError(node, "probe poll", err)
	}
}

// opPIOPoke drives the NIC's memory-mapped FIFO registers at an
// unmapped NIPT entry — the packet is dropped by the board, so the op
// exercises the PIO path with no memory side effects.
func (s *scenario) opPIOPoke(node int, p *kernel.Proc, nd *udmalib.Dev, rng *sim.RNG) {
	pioBase := nd.Base() + addr.VAddr(s.cfg.NIC.NIPTPages*addr.PageSize)
	invalidEntry := s.cfg.NIC.NIPTPages - 1
	if err := p.Store(pioBase+nic.PIORegDest, invalidEntry<<12); err != nil {
		s.opError(node, "pio dest", err)
		return
	}
	words := 1 + rng.Intn(4)
	for w := 0; w < words; w++ {
		if err := p.Store(pioBase+nic.PIORegData, uint32(rng.Uint64())); err != nil {
			s.opError(node, "pio data", err)
			return
		}
	}
	if err := p.Store(pioBase+nic.PIORegLaunch, 1); err != nil {
		s.opError(node, "pio launch", err)
		return
	}
	if _, err := p.Load(pioBase + nic.PIORegStatus); err != nil {
		s.opError(node, "pio status", err)
	}
}

// opDMAWrite runs the traditional kernel-initiated path against the
// scratch device, so syscall pinning and the system queue interleave
// with user-level UDMA traffic.
func (s *scenario) opDMAWrite(node int, p *kernel.Proc, srcBuf addr.VAddr, myPage uint32, rng *sim.RNG) {
	n := 64 + rng.Intn(addr.PageSize-64)
	pattern := patternBytes(rng.Uint64(), n)
	if err := p.WriteBuf(srcBuf, pattern); err != nil {
		s.opError(node, "dma fill", err)
		return
	}
	devPA := addr.DevProxy(s.scratchFirst[node]+myPage, 0)
	if err := p.DMAWrite(srcBuf, devPA, n, kernel.DMAOptions{}); err != nil {
		s.opError(node, "dma write", err)
		return
	}
	devOff := int(myPage) * addr.PageSize
	if got := s.scratch[node].Bytes(devOff, n); !bytes.Equal(got, pattern) {
		s.fail(node, "conservation",
			fmt.Sprintf("scratch page %d has wrong bytes after %dB DMAWrite (first diff at %d)",
				myPage, n, firstDiff(got, pattern)))
	}
}

// opRemoteSend performs a deliberate update: one full page through the
// sender NIC into the receiver's exported frame. The page is marked
// tainted across the transfer so a mid-send kill or injected fault
// disqualifies it from final verification instead of failing it.
func (s *scenario) opRemoteSend(node int, p *kernel.Proc, nd *udmalib.Dev,
	srcBuf addr.VAddr, rng *sim.RNG) {
	rp := s.remote
	for waits := 0; !s.windowReady; waits++ {
		if waits > 200 {
			return // receiver never exported; nothing to send into
		}
		p.Sleep(800)
	}
	j := rng.Intn(rp.pages)
	pattern := patternBytes(rng.Uint64(), addr.PageSize)
	if err := p.WriteBuf(srcBuf, pattern); err != nil {
		s.opError(node, "remote fill", err)
		return
	}
	rp.tainted[j] = true
	if err := nd.Send(srcBuf, udmalib.WindowOff(uint32(j), 0), addr.PageSize); err != nil {
		s.opError(node, "remote send", err)
		return // page stays tainted: delivery state unknown
	}
	rp.expect[j] = pattern
	rp.tainted[j] = false
}
