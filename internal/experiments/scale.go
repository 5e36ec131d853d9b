package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"

	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// E18 exercises the routed fabric at scale: a 64-node (8×8) mesh and
// torus under incast-into-one-node, all-to-all exchange and
// bisection-saturation workloads, each on two fabrics:
//
//   - "limited": every routed link at scaleLimitedBPC bytes/cycle —
//     well below the 0.55 B/cyc EISA receive bus, so the links (not
//     the receiver) are the bottleneck and XY routing funnels incast
//     through the one or two links feeding the victim's router;
//   - "ample": links at the host-interface rate (2.9 B/cyc), where the
//     receiver's bus is the bottleneck and the fabric never saturates.
//
// Goodput on the limited fabric must visibly flatten at link capacity
// — more senders buy queueing, not throughput — while the ample fabric
// runs several times faster. The torus's wraparound links double the
// inbound capacity at the incast victim and roughly halve all-to-all
// link loads, which the cross-topology checks pin down.
const (
	scaleNodes      = 64
	scaleWidth      = 8
	scaleMsgSize    = 4096
	scaleLimitedBPC = 0.1 // bytes/cycle per routed link on the "limited" fabric
)

// scaleCase is one e18 run: a topology, a fabric capacity, a workload
// and a worker count.
type scaleCase struct {
	name     string
	topo     interconnect.Topology
	workload string // "incast", "alltoall" or "bisect"
	senders  []int  // incast senders (nil = every node but the victim)
	messages int    // per sender (per destination for alltoall)
	workers  int
	metrics  *telemetry.Registry // optional rollup mirror (pure observer)
}

// IncastRun is what one e18 case measures, and the readout of a
// standalone RunIncast — the cmd/shrimpsim `-scenario incast` face of
// the e18 machinery.
type IncastRun struct {
	Fingerprint string
	Bytes       uint64
	Elapsed     sim.Cycles
	// SoftwareEnd is the cycle at which the last sender process
	// returned; DrainShare is the share of Elapsed after it, the tail
	// in which only hardware (receive DMA, the fabric) was still busy.
	SoftwareEnd sim.Cycles
	DrainShare  float64
	GoodputBPC  float64 // aggregate payload bytes per simulated cycle
	HotBusy     uint64  // busiest link's busy cycles
	HotFrac     float64 // busiest link's busy fraction of elapsed
	WaitCycles  uint64  // total cycles packets queued on links
	PeakQueue   uint64  // deepest link FIFO backlog anywhere
	LinksUsed   int
}

// scaleTopo builds the 8×8 declaration at the given per-link capacity
// (0 = host-interface rate, the "ample" fabric).
func scaleTopo(kind interconnect.Kind, bpc float64) interconnect.Topology {
	return interconnect.Topology{Kind: kind, Nodes: scaleNodes, Width: scaleWidth, LinkBytesPerCyc: bpc}
}

// RunScaleOut is E18. See the package-level constants above for the
// fabric regimes; the checks assert where each regime's bottleneck sits
// and that the routed fabric stays bit-exact under host parallelism.
func RunScaleOut() (*Result, error) {
	res := &Result{
		ID:    "e18",
		Title: "Routed fabric at scale: 64-node mesh/torus link contention",
		Paper: "extension — the paper's 2-node prototype rides a real routed Paragon mesh; this models that fabric's links and lets them saturate",
	}

	type cell struct {
		workload string
		kind     interconnect.Kind
		fabric   string
		bpc      float64
		messages int
	}
	var cells []cell
	for _, wk := range []struct {
		name string
		msgs int
	}{{"incast", 6}, {"alltoall", 1}, {"bisect", 8}} {
		for _, kind := range []interconnect.Kind{interconnect.KindMesh, interconnect.KindTorus} {
			cells = append(cells,
				cell{wk.name, kind, "limited", scaleLimitedBPC, wk.msgs},
				cell{wk.name, kind, "ample", 0, wk.msgs})
		}
	}

	tbl := stats.NewTable(
		fmt.Sprintf("64-node routed fabric (8×8), %d B messages: goodput vs link capacity", scaleMsgSize),
		"workload", "topology", "fabric", "goodput B/cyc", "MB/s", "elapsed Mcyc", "hot link busy", "queue wait Mcyc", "peak queue")
	costs := machine.SHRIMP1996()
	runs := make(map[string]*IncastRun, len(cells))
	for _, cl := range cells {
		sc := scaleCase{
			name:     fmt.Sprintf("%s_%s_%s", cl.workload, cl.kind, cl.fabric),
			topo:     scaleTopo(cl.kind, cl.bpc),
			workload: cl.workload,
			messages: cl.messages,
			workers:  4,
		}
		r, err := runScaleCase(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		runs[sc.name] = r
		tbl.AddRow(cl.workload, cl.kind.String(), cl.fabric,
			fmt.Sprintf("%.3f", r.GoodputBPC),
			fmt.Sprintf("%.1f", mbps(costs, int(r.Bytes), r.Elapsed)),
			fmt.Sprintf("%.2f", float64(r.Elapsed)/1e6),
			fmt.Sprintf("%.0f%%", 100*r.HotFrac),
			fmt.Sprintf("%.2f", float64(r.WaitCycles)/1e6),
			fmt.Sprintf("%d", r.PeakQueue))
		res.metric(sc.name+"_goodput_bpc", r.GoodputBPC)
		res.metric(sc.name+"_elapsed_cycles", float64(r.Elapsed))
		res.metric(sc.name+"_peak_queue", float64(r.PeakQueue))
		res.metric(sc.name+"_software_end_cycles", float64(r.SoftwareEnd))
		res.metric(sc.name+"_drain_share", r.DrainShare)
	}
	res.Tables = append(res.Tables, tbl)

	// Incast flattening sweep: senders drawn from rows 1+ only, so on
	// the mesh every byte funnels through the single column link into
	// the victim's router — quadrupling the offered load must buy
	// (almost) nothing.
	series := &stats.Series{Name: "incast goodput vs sender count (mesh, limited fabric)",
		XLabel: "senders", YLabel: "goodput B/cyc"}
	sweepTbl := stats.NewTable(
		fmt.Sprintf("Incast flattening at link capacity (%.2f B/cyc): senders from rows 1+, mesh", scaleLimitedBPC),
		"senders", "offered B/cyc", "goodput B/cyc", "hot link busy", "peak queue")
	var sweepGoodputs []float64
	for _, k := range []int{14, 28, 56} {
		senders := make([]int, k)
		for i := range senders {
			senders[i] = scaleWidth + i // nodes 8.. — all with y >= 1
		}
		sc := scaleCase{
			name:     fmt.Sprintf("incast_flat_%d", k),
			topo:     scaleTopo(interconnect.KindMesh, scaleLimitedBPC),
			workload: "incast",
			senders:  senders,
			messages: 6,
			workers:  4,
		}
		r, err := runScaleCase(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		// Offered load: every sender's bus can source a message each
		// ~(startup + size/DMABytesPerCyc) cycles.
		perMsg := float64(costs.RecvDMAStartup) + float64(scaleMsgSize)/costs.DMABytesPerCyc
		offered := float64(k) * float64(scaleMsgSize) / perMsg
		sweepTbl.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.2f", offered),
			fmt.Sprintf("%.3f", r.GoodputBPC),
			fmt.Sprintf("%.0f%%", 100*r.HotFrac),
			fmt.Sprintf("%d", r.PeakQueue))
		series.Add(float64(k), r.GoodputBPC)
		sweepGoodputs = append(sweepGoodputs, r.GoodputBPC)
		res.metric(fmt.Sprintf("incast_flat_senders_%d_goodput_bpc", k), r.GoodputBPC)
		res.metric(fmt.Sprintf("incast_flat_senders_%d_software_end_cycles", k), float64(r.SoftwareEnd))
		res.metric(fmt.Sprintf("incast_flat_senders_%d_drain_share", k), r.DrainShare)
	}
	res.Tables = append(res.Tables, sweepTbl)
	res.Series = append(res.Series, series)

	// --- shape checks -----------------------------------------------------

	ampleWins := true
	var pairs []string
	for _, cl := range cells {
		if cl.fabric != "limited" {
			continue
		}
		lim := runs[fmt.Sprintf("%s_%s_limited", cl.workload, cl.kind)]
		amp := runs[fmt.Sprintf("%s_%s_ample", cl.workload, cl.kind)]
		ampleWins = ampleWins && lim.GoodputBPC > 0 && amp.GoodputBPC > lim.GoodputBPC
		pairs = append(pairs, fmt.Sprintf("%s/%s %.3f < %.3f", cl.workload, cl.kind, lim.GoodputBPC, amp.GoodputBPC))
	}
	res.check("ample beats limited goodput (> 0) for every workload and topology", ampleWins,
		"limited < ample B/cyc: %s", strings.Join(pairs, ", "))

	mi := runs["incast_mesh_limited"]
	res.check("limited incast flattens at link capacity",
		mi.GoodputBPC >= 0.5*scaleLimitedBPC && mi.GoodputBPC <= 2.5*scaleLimitedBPC,
		"mesh incast goodput %.3f B/cyc vs %.2f B/cyc per link (63 senders share the victim's 2 inbound links)",
		mi.GoodputBPC, scaleLimitedBPC)

	ai := runs["incast_mesh_ample"]
	res.check("ample fabric does not flatten at link capacity",
		ai.GoodputBPC >= 2.5*mi.GoodputBPC,
		"ample incast %.3f B/cyc vs limited %.3f (receiver bus %.2f B/cyc is the ample bottleneck)",
		ai.GoodputBPC, mi.GoodputBPC, costs.DMABytesPerCyc)

	lo, hi := sweepGoodputs[0], sweepGoodputs[0]
	for _, g := range sweepGoodputs {
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	res.check("incast goodput is flat as offered load quadruples",
		lo > 0 && hi/lo <= 1.25,
		"goodputs %.3f..%.3f B/cyc across 14/28/56 senders (all behind one column link)", lo, hi)

	ti := runs["incast_torus_limited"]
	res.check("torus wraparound widens the incast funnel",
		ti.GoodputBPC >= 1.4*mi.GoodputBPC,
		"torus incast %.3f vs mesh %.3f B/cyc (4 inbound links vs 2)", ti.GoodputBPC, mi.GoodputBPC)

	// All-to-all: the torus's wraparound halves each dimension's worst
	// crossing load. End-to-end goodput moves less (every destination
	// still has an incast funnel on its last hop), so the check pins
	// the hottest link's occupancy, with goodput as a no-regression
	// guard.
	ma, ta := runs["alltoall_mesh_limited"], runs["alltoall_torus_limited"]
	res.check("torus spreads the all-to-all hot-spot (halved worst-link load)",
		float64(ta.HotBusy) <= 0.75*float64(ma.HotBusy) && ta.GoodputBPC >= 0.95*ma.GoodputBPC,
		"hottest link busy %.2f Mcyc (torus) vs %.2f (mesh); goodput %.3f vs %.3f B/cyc",
		float64(ta.HotBusy)/1e6, float64(ma.HotBusy)/1e6, ta.GoodputBPC, ma.GoodputBPC)

	mb, ab := runs["bisect_mesh_limited"], runs["bisect_mesh_ample"]
	crossCap := 2 * scaleWidth * scaleLimitedBPC // W crossing links per direction
	res.check("bisection exchange saturates the crossing links",
		mb.GoodputBPC >= 0.5*crossCap && mb.GoodputBPC <= 1.25*crossCap,
		"mesh bisect goodput %.3f B/cyc vs %.1f B/cyc crossing capacity", mb.GoodputBPC, crossCap)
	res.check("ample fabric clears the bisection bottleneck",
		ab.GoodputBPC >= 2*mb.GoodputBPC,
		"ample %.3f vs limited %.3f B/cyc", ab.GoodputBPC, mb.GoodputBPC)

	// --- determinism: worker equivalence and run-twice --------------------

	fpCase := scaleCase{
		name:     "incast_mesh_limited_fp",
		topo:     scaleTopo(interconnect.KindMesh, scaleLimitedBPC),
		workload: "incast",
		messages: 6,
	}
	var baseFP string
	identical := true
	for _, w := range []int{1, 2, 4, 8} {
		sc := fpCase
		sc.workers = w
		r, err := runScaleCase(sc)
		if err != nil {
			return nil, fmt.Errorf("fingerprint workers=%d: %w", w, err)
		}
		if w == 1 {
			baseFP = r.Fingerprint
		} else if r.Fingerprint != baseFP {
			identical = false
		}
	}
	res.check("contention resolution is bit-identical at workers 1/2/4/8", identical,
		"64-node incast fingerprints must match; base %s", baseFP[:16])

	sc := fpCase
	sc.workers = 4
	again, err := runScaleCase(sc)
	if err != nil {
		return nil, fmt.Errorf("rerun: %w", err)
	}
	res.check("same seed, same fabric: run-twice bit-exact",
		again.Fingerprint == baseFP,
		"rerun fingerprint %s vs %s", again.Fingerprint[:16], baseFP[:16])

	res.metric("fabric_links_used_incast", float64(mi.LinksUsed))
	res.metric("incast_wait_cycles", float64(mi.WaitCycles))
	res.Notes = append(res.Notes,
		fmt.Sprintf("limited fabric: %.2f B/cyc per directed link — below the %.2f B/cyc receive bus, so links are the bottleneck", scaleLimitedBPC, costs.DMABytesPerCyc),
		"ample fabric: links at the host-interface rate (2.9 B/cyc); incast is then bound by the victim's EISA receive bus",
		"contention is charged at barriers in the deterministic (arrive, src, seq) merge order, so link queueing is a pure function of what was sent",
		"XY routing funnels mesh incast through 2 inbound links at the victim's router; the torus's wraparound links make it 4")
	return res, nil
}

// runScaleCase builds the 64-node cluster, wires the workload's send
// windows, runs it to completion and folds the outcome — including the
// per-link occupancy ledger — into a fingerprint.
func runScaleCase(sc scaleCase) (*IncastRun, error) {
	nodes := sc.topo.Nodes
	c := cluster.New(cluster.Config{
		Nodes:    nodes,
		Topology: sc.topo,
		Workers:  sc.workers,
		Window:   20_000,
		Machine:  machine.Config{RAMFrames: 96, Kernel: kernel.Config{Quantum: 2000}},
		NIC:      nic.Config{NIPTPages: uint32(nodes)},
		Metrics:  sc.metrics,
	})
	defer c.Shutdown()

	// sends[i] lists (NIPT entry, destination) pairs for node i's
	// sender process; empty means the node only receives.
	type target struct{ entry, dst int }
	sends := make([][]target, nodes)
	switch sc.workload {
	case "incast":
		senders := sc.senders
		if senders == nil {
			for i := 1; i < nodes; i++ {
				senders = append(senders, i)
			}
		}
		for _, s := range senders {
			sends[s] = []target{{0, 0}}
		}
	case "alltoall":
		for i := 0; i < nodes; i++ {
			e := 0
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				sends[i] = append(sends[i], target{e, j})
				e++
			}
		}
	case "bisect":
		// Every node exchanges with the node half the ring away in its
		// row: the whole machine's traffic crosses the column-W/2
		// bisection (mesh) or splits between it and the wraparound
		// links (torus). 8×8 only (e18's grid).
		for i := 0; i < nodes; i++ {
			x, y := i%scaleWidth, i/scaleWidth
			sends[i] = []target{{0, y*scaleWidth + (x+scaleWidth/2)%scaleWidth}}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", sc.workload)
	}

	senders := make([]*workload.Sender, nodes)
	var wantBytes uint64
	for i, targets := range sends {
		if len(targets) == 0 {
			continue
		}
		offsets := make([]uint32, len(targets))
		for k, tg := range targets {
			if err := udmalib.MapSendWindow(c.NICs[i], uint32(tg.entry), tg.dst, []uint32{48}); err != nil {
				return nil, err
			}
			offsets[k] = uint32(tg.entry) * 4096
		}
		wantBytes += uint64(len(targets) * sc.messages * scaleMsgSize)
		senders[i] = &workload.Sender{Dev: c.NICs[i], Size: scaleMsgSize, Seed: byte(i + 1),
			Messages: sc.messages, Offsets: offsets}
	}
	softwareEnd, err := runSenders(c, 5_000_000_000, senders, nil)
	if err != nil {
		return nil, err
	}

	if sc.metrics != nil {
		c.PublishRollup()
	}
	_, bytes, _, _ := c.Backplane.Stats()
	if bytes != wantBytes {
		return nil, fmt.Errorf("wire carried %d bytes, want %d", bytes, wantBytes)
	}
	r := &IncastRun{Bytes: bytes, Elapsed: c.MaxNow(), SoftwareEnd: softwareEnd}
	if r.Elapsed > 0 {
		r.GoodputBPC = float64(bytes) / float64(r.Elapsed)
		r.DrainShare = float64(r.Elapsed-softwareEnd) / float64(r.Elapsed)
	}

	h := fnv.New64a()
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(h, "n%d clock=%d nic=%+v|", i, c.Nodes[i].Clock.Now(), c.NICs[i].Stats())
	}
	ls := c.Backplane.LinkStats()
	r.LinksUsed = len(ls)
	for _, l := range ls {
		fmt.Fprintf(h, "L%d>%d:%d:%d:%d:%d|", l.From, l.To, l.BusyCycles, l.WaitCycles, l.Packets, l.PeakQueue)
		if l.BusyCycles > r.HotBusy {
			r.HotBusy = l.BusyCycles
		}
		r.WaitCycles += l.WaitCycles
		if l.PeakQueue > r.PeakQueue {
			r.PeakQueue = l.PeakQueue
		}
	}
	if r.Elapsed > 0 {
		r.HotFrac = float64(r.HotBusy) / float64(r.Elapsed)
	}
	r.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
	return r, nil
}

// RunIncast drives every node but node 0 to push `messages` page-sized
// transfers into node 0 across an N-node routed fabric of the given
// kind, with every link at linkBPC bytes/cycle (0 = the host-interface
// rate, so the receiver bus is the bottleneck instead of the fabric).
// The width is the near-square default. Identical arguments produce an
// identical Fingerprint at any worker count.
func RunIncast(nodes int, kind interconnect.Kind, linkBPC float64, messages, workers int, reg *telemetry.Registry) (*IncastRun, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("incast needs at least 2 nodes (got %d)", nodes)
	}
	if messages < 1 {
		messages = 1
	}
	if workers < 1 {
		workers = 1
	}
	topo := interconnect.Topology{Kind: kind, Nodes: nodes, LinkBytesPerCyc: linkBPC}
	return runScaleCase(scaleCase{topo: topo, workload: "incast",
		messages: messages, workers: workers, metrics: reg})
}

// ScaleLimitedBPC is the constrained per-link capacity the incast
// scenario and e18 share for their "limited" fabric.
const ScaleLimitedBPC = scaleLimitedBPC
