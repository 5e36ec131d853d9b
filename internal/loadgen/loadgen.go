// Package loadgen is the open-loop serving subsystem: a deterministic
// traffic driver that offers sustained load to a SHRIMP cluster and
// reads the result back as serving SLOs instead of benchmark figures.
//
// Closed-loop benchmarks (send N messages, drain, report) let the
// workload politely wait for the machine; a serving system does not get
// that courtesy. Here arrivals follow a seeded Poisson process at a
// configurable offered rate, scheduled entirely on simulated time:
// BuildPlan precomputes every arrival — its time, flow, class and
// per-flow sequence number — from the seed before the cluster runs a
// single cycle. Load therefore never adapts to service: when the NIC
// saturates, queues grow and sojourn time (arrival→delivery, queueing
// included) records exactly how far behind the machine fell.
//
// The flow model: thousands of logical flows, each pinned to a
// (source, destination, class) triple. Arrivals for one flow are served
// in order because every flow hashes to one per-destination FIFO queue
// on its source node, drained by a single server process; flows on
// different queues interleave freely. Three traffic classes cover the
// paper's mechanism spectrum — small messages through the PIO FIFO
// window, mid-size single-page UDMA sends, and large multi-page
// deliberate updates.
//
// Determinism: the arrival schedule is fixed before simulation, every
// queue and counter a process touches mid-window is local to its node,
// and all cross-node control (mapping receiver windows into sender
// NIPTs, stopping receivers) happens in Driver.PublishControl at
// lockstep barriers. A trial is therefore bit-exact at any
// cluster.Config.Workers count — Result.Fingerprint pins that down.
package loadgen

import (
	"fmt"
	"math"

	"shrimp/internal/addr"
	"shrimp/internal/sim"
)

// Class is one traffic class of the flow mix.
type Class int

const (
	// ClassSmall is a 64-byte message pushed through the NIC's
	// memory-mapped PIO FIFO window: the paper's Section 9 baseline,
	// fire-and-forget word stores with no DMA setup.
	ClassSmall Class = iota
	// ClassMid is a 2 KB UDMA deliberate update (single-page transfer).
	ClassMid
	// ClassLarge is a multi-page UDMA deliberate update spanning the
	// whole receive window (WindowPages pages).
	ClassLarge

	NumClasses = 3
)

// String names the class for tables and telemetry labels.
func (c Class) String() string {
	switch c {
	case ClassSmall:
		return "small-pio"
	case ClassMid:
		return "mid-udma"
	case ClassLarge:
		return "large-multipage"
	}
	return fmt.Sprintf("class-%d", int(c))
}

// Size is the class's message payload size given the receive-window
// span in pages.
func (c Class) Size(windowPages int) int {
	switch c {
	case ClassSmall:
		return 64
	case ClassMid:
		return 2048
	default:
		return windowPages * addr.PageSize
	}
}

// Config shapes one open-loop trial. Zero fields take defaults.
type Config struct {
	// Nodes is the cluster size (>= 2; every node both sends and
	// receives).
	Nodes int
	// Seed derives the whole arrival schedule and flow table.
	Seed uint64
	// Rate is the aggregate offered rate in messages per million
	// simulated cycles, across the whole cluster.
	Rate float64
	// Messages is the total number of arrivals to offer.
	Messages int
	// Flows is the number of logical flows (default 2048). Each flow is
	// pinned to a (src, dst, class) triple at plan build.
	Flows int
	// WindowPages is the receive-window span per destination node
	// (default 4): every node exports WindowPages pinned pages, mapped
	// into every sender's NIPT.
	WindowPages int

	// Churn switches the flow model to connection churn: instead of a
	// fixed population drawn uniformly, ActiveFlows flows are live at
	// any instant, each dies after a seeded per-flow message budget, and
	// a fresh flow — new identity, new (src, dst, class), its own NIPT
	// entry — immediately takes its slot. Total flows ≈
	// Messages/MsgsPerFlow (thousands at scale): the workload that
	// pressures a bounded NIPT cache and the reliability-state pools.
	Churn bool
	// ActiveFlows is the live-flow population in churn mode (default 64).
	ActiveFlows int
	// MsgsPerFlow is the mean per-flow message budget in churn mode
	// (default 3); each flow draws uniformly in [1, 2*MsgsPerFlow-1].
	MsgsPerFlow int
}

// The fixed trial shape every Config shares.
const (
	// mixSmall:mixMid:mixLarge weight the class draw per flow.
	mixSmall, mixMid, mixLarge = 6, 3, 1
	// startAt is the first-arrival floor in cycles, leaving room for the
	// receive windows to export and publish before traffic lands.
	startAt sim.Cycles = 64_000
	// sampleEvery is the queue-depth/credit-stall sampling period per
	// node.
	sampleEvery sim.Cycles = 10_000
)

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Rate == 0 {
		c.Rate = 100
	}
	if c.Messages == 0 {
		c.Messages = 400
	}
	if c.Flows == 0 {
		c.Flows = 2048
	}
	if c.WindowPages == 0 {
		c.WindowPages = 4
	}
	if c.Churn {
		if c.ActiveFlows == 0 {
			c.ActiveFlows = 64
		}
		if c.MsgsPerFlow == 0 {
			c.MsgsPerFlow = 3
		}
	}
	return c
}

// Flow is one logical flow's fixed identity.
type Flow struct {
	Src, Dst int
	Class    Class
}

// Arrival is one scheduled message: its simulated arrival time, the
// flow it belongs to, and its position in that flow (Seq counts from 0
// in arrival order — the serving side checks it to prove per-flow FIFO
// ordering survived).
type Arrival struct {
	At   sim.Cycles
	Flow int
	Seq  int
}

// Plan is the precomputed, purely-data description of a trial: the
// flow table and every node's arrival schedule, all derived from the
// seed before any simulation runs. Two BuildPlan calls with the same
// Config yield identical plans; nothing in a Plan can depend on
// execution order.
type Plan struct {
	Cfg   Config
	Flows []Flow
	// Arrivals[src] is source node src's schedule, ascending in At.
	Arrivals [][]Arrival
	// Span is the offered interval: last arrival time minus startAt.
	Span sim.Cycles
	// Offered and OfferedBytes count the schedule per class.
	Offered      [NumClasses]int
	OfferedBytes [NumClasses]uint64
	// FlowDeaths counts flows whose message budget ran out during the
	// schedule (churn mode only); each death birthed a replacement flow.
	FlowDeaths int
}

// BuildPlan derives a trial's complete arrival schedule from the seed.
// Inter-arrival gaps are exponential with mean 1e6/Rate cycles (a
// Poisson process at the offered rate), rounded up to one cycle; each
// arrival picks a uniform flow, and the flow's fixed (src, dst, class)
// decides where it queues and how it ships.
func BuildPlan(cfg Config) *Plan {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 {
		panic(fmt.Sprintf("loadgen: %d nodes (need >= 2 to serve remote traffic)", cfg.Nodes))
	}
	rng := sim.NewRNG(cfg.Seed)
	p := &Plan{Cfg: cfg}

	newFlow := func() Flow {
		src := rng.Intn(cfg.Nodes)
		dst := (src + 1 + rng.Intn(cfg.Nodes-1)) % cfg.Nodes
		class := ClassSmall
		switch pick := rng.Intn(mixSmall + mixMid + mixLarge); {
		case pick < mixSmall:
			class = ClassSmall
		case pick < mixSmall+mixMid:
			class = ClassMid
		default:
			class = ClassLarge
		}
		return Flow{Src: src, Dst: dst, Class: class}
	}

	if cfg.Churn {
		buildChurn(p, rng, newFlow)
		return p
	}

	p.Flows = make([]Flow, cfg.Flows)
	for f := range p.Flows {
		p.Flows[f] = newFlow()
	}

	meanGap := 1e6 / cfg.Rate
	p.Arrivals = make([][]Arrival, cfg.Nodes)
	seq := make([]int, cfg.Flows)
	t := startAt
	for m := 0; m < cfg.Messages; m++ {
		// Exponential inter-arrival via inverse transform; 1-U is in
		// (0,1], so the log argument never hits zero.
		gap := sim.Cycles(-math.Log(1-rng.Float64()) * meanGap)
		if gap < 1 {
			gap = 1
		}
		t += gap
		f := rng.Intn(cfg.Flows)
		fl := p.Flows[f]
		p.Arrivals[fl.Src] = append(p.Arrivals[fl.Src], Arrival{At: t, Flow: f, Seq: seq[f]})
		seq[f]++
		p.Offered[fl.Class]++
		p.OfferedBytes[fl.Class] += uint64(fl.Class.Size(cfg.WindowPages))
	}
	p.Span = t - startAt
	return p
}

// buildChurn derives a connection-churn schedule: ActiveFlows live
// slots, each holding a flow with a seeded message budget drawn in
// [1, 2*MsgsPerFlow-1]. Every arrival picks a uniform live slot; when
// the slot's budget hits zero the flow dies on simulated time and a
// freshly drawn flow — new identity (appended to p.Flows), new
// (src, dst, class) — is born into the slot. The flow population thus
// grows to ≈ Messages/MsgsPerFlow distinct identities over the
// schedule, each needing its own NIPT entry for only a short life: the
// access pattern that makes a bounded NIPT cache and idle-state
// reclamation earn their keep.
func buildChurn(p *Plan, rng *sim.RNG, newFlow func() Flow) {
	cfg := p.Cfg
	slots := make([]int, cfg.ActiveFlows)  // slot -> flow id
	budget := make([]int, cfg.ActiveFlows) // messages left before death
	drawBudget := func() int { return 1 + rng.Intn(2*cfg.MsgsPerFlow-1) }
	for s := range slots {
		slots[s] = len(p.Flows)
		p.Flows = append(p.Flows, newFlow())
		budget[s] = drawBudget()
	}

	meanGap := 1e6 / cfg.Rate
	p.Arrivals = make([][]Arrival, cfg.Nodes)
	var seq []int // per flow id, grown as flows are born
	t := startAt
	for m := 0; m < cfg.Messages; m++ {
		gap := sim.Cycles(-math.Log(1-rng.Float64()) * meanGap)
		if gap < 1 {
			gap = 1
		}
		t += gap
		s := rng.Intn(cfg.ActiveFlows)
		f := slots[s]
		fl := p.Flows[f]
		for len(seq) <= f {
			seq = append(seq, 0)
		}
		p.Arrivals[fl.Src] = append(p.Arrivals[fl.Src], Arrival{At: t, Flow: f, Seq: seq[f]})
		seq[f]++
		p.Offered[fl.Class]++
		p.OfferedBytes[fl.Class] += uint64(p.MsgSize(fl.Class))
		if budget[s]--; budget[s] == 0 {
			p.FlowDeaths++
			slots[s] = len(p.Flows)
			p.Flows = append(p.Flows, newFlow())
			budget[s] = drawBudget()
		}
	}
	p.Span = t - startAt
}

// NIPTEntries is the sender NIPT capacity a plan needs. In the fixed
// flow model: one WindowPages-sized window per destination node, at
// entry base dst*WindowPages. In churn mode every flow owns one entry
// (its index is the flow id), so the table spans the whole flow
// population — the working set a bounded cache then has to chase.
func (p *Plan) NIPTEntries() uint32 {
	if p.Cfg.Churn {
		return uint32(len(p.Flows))
	}
	return uint32(p.Cfg.Nodes * p.Cfg.WindowPages)
}

// MsgSize is the payload size class c ships under this plan. In churn
// mode every flow owns a single-page window, so ClassLarge caps at one
// page; the fixed flow model spans the whole WindowPages window.
func (p *Plan) MsgSize(c Class) int {
	if p.Cfg.Churn && c == ClassLarge {
		return addr.PageSize
	}
	return c.Size(p.Cfg.WindowPages)
}
