// Package interconnect models the Intel Paragon routing backplane that
// connects SHRIMP nodes: a routed 2D mesh or torus of directed links,
// each with its own bandwidth (a busy-until reservation, like the
// per-sender inject FIFO) and FIFO contention queue, with
// deterministic dimension-order (XY) routing and in-order delivery
// between any pair of nodes. The fabric shape is a Topology fixed at
// construction (see topology.go); Attach never reshapes it.
//
// Each node simulates on its own clock (see DESIGN.md §6 and
// internal/cluster): a packet launched at sender-time T arrives at the
// receiver at max(receiver-now, T + zero-load flight + contention).
// Injection is serialized per sender — one outgoing FIFO drains into
// the network at the host-interface link speed — which is what bounds
// back-to-back page sends; the routed links the packet then walks each
// charge their own occupancy, which is what makes two senders into one
// receiver slow each other down (see DESIGN.md §15).
//
// Cross-node delivery goes through mailboxes: Send appends every
// cross-node packet to the sender's timestamped outbox, and Flush —
// called at the cluster's lockstep barriers — merges all mailboxes in a
// deterministic (arrive, src, seq) order onto the receiver clocks.
// Because nothing touches a remote clock mid-window, a node's inbound
// events for a window are fixed before the window runs, which is what
// lets the cluster run node kernels on parallel worker goroutines
// without changing a single simulated timestamp. A rig that drives
// clocks by hand flushes before it advances them. Loopback packets
// (src == dst) are delivered at once: they stay on the sender's own
// clock, so they are race-free under any worker count.
package interconnect

import (
	"fmt"
	"sort"

	"shrimp/internal/addr"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// PacketKind distinguishes data-bearing packets from the reliability
// layer's control traffic. The zero value is PktData so pre-reliability
// code (and tests) that build bare packets keep working.
type PacketKind uint8

const (
	PktData PacketKind = iota // deliberate-update payload
	PktAck                    // cumulative acknowledgment, no payload
)

func (k PacketKind) String() string {
	if k == PktAck {
		return "ack"
	}
	return "data"
}

// Packet is one deliberate-update message on the wire: a destination
// physical memory address on the destination node plus payload bytes.
// The Kind/Epoch/Seq/Ack/Window/CRC fields are the reliable-delivery
// header added by internal/nic; they ride along untouched (except by
// deliberate corruption) and are zero when reliability is disabled.
type Packet struct {
	Src, Dst int
	DestAddr addr.PAddr // physical memory address on the destination node
	Payload  []byte

	Kind   PacketKind
	Epoch  uint32 // connection incarnation; bumped when a link is declared broken
	Seq    uint64 // per-(src,dst) data sequence number, first packet is 1
	Ack    uint64 // cumulative: every seq <= Ack has been delivered
	Window uint32 // receiver credits: data packets it can buffer beyond Ack
	CRC    uint32 // IEEE CRC32 over header fields + payload

	// Retrans marks a sender retransmission (for wire accounting); Dup
	// marks a fabric-created duplicate delivery.
	Retrans bool
	Dup     bool

	// LaunchedAt is the sender-clock time the packet entered the
	// network; ArrivedAt is filled in (receiver clock) at delivery.
	LaunchedAt sim.Cycles
	ArrivedAt  sim.Cycles

	// Buf, when non-nil, is the recycled wire buffer that backed Payload
	// at launch (internal/nic's raw path sets it); the receiving board
	// returns it once the payload is in memory. It belongs to this one
	// packet, so a copy of the packet must not carry it.
	Buf *[addr.PageSize]byte
}

// Endpoint is a network interface attached to the backplane.
type Endpoint interface {
	// NodeID returns the endpoint's node number.
	NodeID() int
	// NodeClock returns the clock deliveries should be scheduled on.
	NodeClock() *sim.Clock
	// DeliverPacket is invoked on the receiver's clock when the packet
	// arrives.
	DeliverPacket(pkt *Packet)
}

// mailEntry is one deferred delivery parked in a sender's outbox:
// the packet plus its arrival time (sender-clock) and a per-sender
// sequence number that breaks same-cycle ties deterministically.
type mailEntry struct {
	pkt *Packet
	at  sim.Cycles
	seq uint64
}

// outbox is the per-sender slice of all backplane state a Send
// mutates: the injection FIFO, launch counters, fault accounting, the
// per-destination fault RNG streams and the deferred-delivery mailbox.
// Because every field is touched only from the sending node's
// goroutine, concurrent windows on different nodes never contend, and
// summing the shards at a barrier is deterministic.
type outbox struct {
	injectFree sim.Cycles // outgoing FIFO free time

	packets      uint64
	bytes        uint64
	retransPkts  uint64
	retransBytes uint64

	links  map[int]*linkFault // per-destination fault state
	fstats FaultStats

	// mail holds deferred deliveries awaiting Flush, kept sorted by
	// (arrival, sequence) as entries are parked so Flush is a pure
	// k-way merge across shards. cur is the merge cursor.
	mail []mailEntry
	seq  uint64 // next mailEntry tie-break sequence
	cur  int    // Flush merge cursor into mail
}

// park appends a deferred delivery, keeping the mailbox sorted by
// (arrival, sequence). Arrival times are mostly nondecreasing — the
// inject FIFO serializes launches — so the insertion scan from the end
// is O(1) in the common case; inversions come only from hop-count
// differences and fault-plan delays, which are bounded. Equal arrivals
// insert after existing entries, preserving sequence order.
func (ob *outbox) park(pkt *Packet, at sim.Cycles) {
	e := mailEntry{pkt: pkt, at: at, seq: ob.seq}
	ob.seq++
	mail := append(ob.mail, e)
	i := len(mail) - 1
	for i > 0 && mail[i-1].at > at {
		mail[i] = mail[i-1]
		i--
	}
	mail[i] = e
	ob.mail = mail
}

// Backplane is the routed fabric. The topology (shape, node count,
// width, link capacity) is fixed at construction; attach every declared
// endpoint before sending — an early Send is a wiring panic.
type Backplane struct {
	costs *sim.CostModel
	topo  Topology   // normalized: width resolved
	links []link     // directed fabric links, indexed router*4+direction
	eps   []Endpoint // indexed by node id; nil when unattached
	out   []*outbox  // per-sender shard, created at Attach; same indexing
	ids   []int      // attached node ids, sorted: deterministic iteration
	n     int        // attached endpoint count

	// down marks crashed nodes. It is written only by SetNodeDown at
	// lockstep barriers (no worker mid-window), so plain reads from
	// Send on worker goroutines are ordered by the barrier and the
	// drop decision is identical at every worker count.
	down []bool

	plan    FaultPlan
	tracers []*trace.Tracer // per-sender wire anomaly tracers, indexed like eps

	shards  []*outbox        // scratch: mail-bearing shards for one Flush merge
	schedFn func(*mailEntry) // prebuilt Flush callback, so Flush allocates nothing
}

// New returns an empty backplane over the declared topology, using the
// given cost model for link timing. The topology is final: the router
// grid, hop distances and link capacities never change as endpoints
// attach.
func New(costs *sim.CostModel, topo Topology) *Backplane {
	if costs == nil {
		panic("interconnect: New requires a cost model")
	}
	topo = topo.normalized()
	b := &Backplane{
		costs:   costs,
		topo:    topo,
		links:   make([]link, topo.Routers()*4),
		eps:     make([]Endpoint, topo.Nodes),
		out:     make([]*outbox, topo.Nodes),
		down:    make([]bool, topo.Nodes),
		tracers: make([]*trace.Tracer, topo.Nodes),
	}
	// The Flush visit callback charges link contention in merged order
	// — the (arrive, src, seq) merge is the one deterministic total
	// order over a window's traffic, so occupancy is a pure function of
	// what was sent, independent of worker count.
	b.schedFn = func(e *mailEntry) {
		b.schedule(b.eps[e.pkt.Dst], e.pkt, b.chargeArrival(e.pkt, e.at))
	}
	return b
}

// ep returns the endpoint attached as node id, or nil.
func (b *Backplane) ep(id int) Endpoint {
	if id < 0 || id >= len(b.eps) {
		return nil
	}
	return b.eps[id]
}

// SetFaultPlan installs (or, with the zero plan, clears) the wire fault
// model. Call before traffic starts: per-link RNG streams reset.
func (b *Backplane) SetFaultPlan(plan FaultPlan) {
	b.plan = plan
	for _, id := range b.ids {
		b.out[id].links = make(map[int]*linkFault)
	}
}

// Plan returns the installed fault plan.
func (b *Backplane) Plan() FaultPlan { return b.plan }

// SetNodeDown marks a node crashed (or rebooted): while a node is down,
// every packet launched to or from it is dropped deterministically —
// its links are dead, not lossy. Call only at a lockstep barrier
// (cluster.CrashPlan does), never while a window is running.
func (b *Backplane) SetNodeDown(node int, down bool) {
	for node >= len(b.down) {
		b.down = append(b.down, false)
	}
	b.down[node] = down
}

// NodeDown reports whether a node is currently marked crashed.
func (b *Backplane) NodeDown(node int) bool {
	return node < len(b.down) && b.down[node]
}

// SetTracer attaches a tracer recording wire anomalies (drops, dups,
// corruptions, delays, flaps) for packets *sent by* the given node, on
// that node's clock. nil detaches.
func (b *Backplane) SetTracer(node int, tr *trace.Tracer) {
	b.tracers[node] = tr
}

// FaultStats returns cumulative fault-plan activity, summed over the
// per-sender shards (node order; the fields are commutative counters).
func (b *Backplane) FaultStats() FaultStats {
	var fs FaultStats
	for _, id := range b.ids {
		fs.add(b.out[id].fstats)
	}
	return fs
}

// Attach registers an endpoint at its declared router. Attaching two
// endpoints with the same node ID, or an ID outside the declared
// topology, is a wiring bug.
func (b *Backplane) Attach(ep Endpoint) {
	id := ep.NodeID()
	if id < 0 || id >= b.topo.Nodes {
		panic(fmt.Sprintf("interconnect: node id %d outside declared %d-node %s",
			id, b.topo.Nodes, b.topo.Kind))
	}
	if b.eps[id] != nil {
		panic(fmt.Sprintf("interconnect: duplicate endpoint for node %d", id))
	}
	b.eps[id] = ep
	b.out[id] = &outbox{links: make(map[int]*linkFault)}
	b.ids = append(b.ids, id)
	sort.Ints(b.ids)
	b.n++
}

// Hops returns the routed path length between two nodes: the number of
// directed links a packet crosses under XY dimension-order routing
// (torus routes take the shorter ring direction per dimension).
func (b *Backplane) Hops(src, dst int) sim.Cycles {
	if src == dst {
		return 1 // through the local router
	}
	return sim.Cycles(b.topo.PathLen(src, dst))
}

// LinkLookahead is the per-directed-(src,dst) conservative bound: the
// zero-load flight time of an empty packet along the routed XY path
// (path length times per-link routing latency, plus empty-packet wire
// time). Contention only ever pushes arrivals later than zero-load, so
// a packet launched by src at its current clock can never be
// timestamped for dst earlier than src's clock plus this — the
// Chandy–Misra-style per-sender guarantee the cluster uses to extend a
// receiver's window past the global horizon without ever clamping an
// arrival (see DESIGN.md §11, §15).
func (b *Backplane) LinkLookahead(src, dst int) sim.Cycles {
	return b.Hops(src, dst)*b.costs.LinkLatency + b.fabricCycles(0)
}

// Send launches a packet from its source endpoint. It serializes with
// the sender's earlier packets (one outgoing FIFO), then flies across
// the mesh and is delivered on the receiver's clock — unless the fault
// plan drops, duplicates, delays or corrupts it in flight. Send returns
// the sender-clock time at which the outgoing FIFO is free again
// (dropped packets still occupied the FIFO on their way out).
//
// A cross-node delivery is parked in the sender's outbox until the next
// Flush; everything Send itself touches lives in the sender's shard, so
// concurrent sends from different nodes never share state.
func (b *Backplane) Send(pkt *Packet) sim.Cycles {
	if b.n != b.topo.Nodes {
		panic(fmt.Sprintf("interconnect: send with %d of %d declared nodes attached",
			b.n, b.topo.Nodes))
	}
	src := b.ep(pkt.Src)
	if src == nil {
		panic(fmt.Sprintf("interconnect: send from unattached node %d", pkt.Src))
	}
	dst := b.ep(pkt.Dst)
	if dst == nil {
		panic(fmt.Sprintf("interconnect: send to unattached node %d", pkt.Dst))
	}
	ob := b.out[pkt.Src]

	now := src.NodeClock().Now()
	start := now
	if ob.injectFree > start {
		start = ob.injectFree
	}
	// The inject FIFO drains at the host-interface rate; the routed
	// fabric links the packet then walks may be slower (or faster) per
	// the topology's capacity.
	wire := b.costs.LinkCycles(len(pkt.Payload))
	ob.injectFree = start + wire

	flight := b.zeroLoadFlight(pkt.Src, pkt.Dst, len(pkt.Payload))
	arriveSender := start + flight // in sender time, before contention

	pkt.LaunchedAt = start
	ob.packets++
	ob.bytes += uint64(len(pkt.Payload))
	if pkt.Retrans {
		ob.retransPkts++
		ob.retransBytes += uint64(len(pkt.Payload))
	}

	// Links to or from a crashed node are dead: the packet occupied the
	// outgoing FIFO (launch accounting above stands) and then vanishes.
	// The check sits before the fault-plan draw so an empty crash plan
	// perturbs no RNG stream — a no-crash run is bit-identical.
	if b.NodeDown(pkt.Src) || b.NodeDown(pkt.Dst) {
		ob.fstats.CrashDrops++
		if pkt.Kind == PktData {
			ob.fstats.CrashDroppedDataPackets++
			ob.fstats.CrashDroppedDataBytes += uint64(len(pkt.Payload))
		}
		b.tracers[pkt.Src].Record(trace.EvWireDrop, uint64(pkt.Dst), pkt.Seq, "node down")
		return ob.injectFree
	}

	out := b.perturb(ob, pkt, start)
	tr := b.tracers[pkt.Src]
	if out.drop {
		if out.flap {
			ob.fstats.FlapDrops++
			tr.Record(trace.EvLinkFlap, uint64(pkt.Dst), pkt.Seq, "pkt dropped: link down")
		} else {
			ob.fstats.Drops++
			tr.Record(trace.EvWireDrop, uint64(pkt.Dst), pkt.Seq, pkt.Kind.String())
		}
		if pkt.Kind == PktData {
			ob.fstats.DroppedDataPackets++
			ob.fstats.DroppedDataBytes += uint64(len(pkt.Payload))
		}
		return ob.injectFree
	}
	// A fabric duplicate is an independent copy that takes its own
	// flight: snapshot it BEFORE the corruption draw is applied, so one
	// corrupt draw taints exactly one wire copy. (Snapshotting after
	// corruption made the byte-ledger disagree with the receiver's CRC
	// accounting under combined corrupt+dup plans.)
	var dupPkt *Packet
	if out.dup {
		d := *pkt
		d.Dup = true
		d.Payload = append([]byte(nil), pkt.Payload...)
		d.Buf = nil // the original alone returns the wire buffer
		dupPkt = &d
	}
	if out.corrupt {
		ob.fstats.Corrupts++
		ob.link(b.plan, pkt.Src, pkt.Dst).corruptPacket(pkt)
		tr.Record(trace.EvWireCorrupt, uint64(pkt.Dst), pkt.Seq, pkt.Kind.String())
	}
	if out.extra > 0 {
		ob.fstats.Delays++
		tr.Record(trace.EvWireDelay, uint64(pkt.Dst), uint64(out.extra), pkt.Kind.String())
	}
	if dupPkt != nil {
		ob.fstats.Dups++
		if dupPkt.Kind == PktData {
			ob.fstats.DupDataBytes += uint64(len(dupPkt.Payload))
		}
		tr.Record(trace.EvWireDup, uint64(pkt.Dst), pkt.Seq, pkt.Kind.String())
		b.deliver(ob, dst, dupPkt, arriveSender+out.dupExtra)
	}
	b.deliver(ob, dst, pkt, arriveSender+out.extra)
	return ob.injectFree
}

// deliver routes one arrival: into the sender's mailbox, or — for
// loopback (src == dst) — straight onto the sender's own clock, which
// is race-free and identical at every worker count. Mail parks at the
// zero-load arrival; contention is charged later, in Flush's merged
// order.
func (b *Backplane) deliver(ob *outbox, dst Endpoint, pkt *Packet, arriveSender sim.Cycles) {
	if pkt.Src != pkt.Dst {
		ob.park(pkt, arriveSender)
		return
	}
	b.schedule(dst, pkt, arriveSender)
}

// schedule puts a packet arrival on the receiver's clock: never before
// the receiver's present (its clock may run ahead or behind the
// sender's).
func (b *Backplane) schedule(dst Endpoint, pkt *Packet, arriveSender sim.Cycles) {
	rclock := dst.NodeClock()
	at := arriveSender
	if rnow := rclock.Now(); at < rnow {
		at = rnow
	}
	rclock.Schedule(at, func() {
		pkt.ArrivedAt = rclock.Now()
		dst.DeliverPacket(pkt)
	})
}

// Flush drains every outbox mailbox onto the receiver clocks. Entries
// are merged in (arrival time, sender, per-sender sequence) order, and
// the visit callback charges each packet's routed-link occupancy in
// exactly that order, so the schedule — contention delays included,
// down to same-cycle tie-breaks on a receiver's event queue — is a
// pure function of what was sent, independent of both the flush caller
// and how many worker goroutines ran the windows that produced the
// mail. Call only at a barrier: no node may be mid-window.
func (b *Backplane) Flush() { b.mergeMail(b.schedFn) }

// mergeMail visits every parked delivery in (arrival, sender, sequence)
// order and empties the mailboxes. Each mailbox is already sorted by
// (arrival, sequence) — park maintains that — so the global order is a
// k-way merge: repeatedly take the earliest head, scanning the active
// shards in ascending node order so equal arrivals resolve to the
// lowest sender. The merge reuses the backplane's scratch slice and a
// prebuilt visit callback, so a steady-state flush allocates nothing.
func (b *Backplane) mergeMail(visit func(*mailEntry)) {
	shards := b.shards[:0]
	for _, id := range b.ids {
		ob := b.out[id]
		if len(ob.mail) > 0 {
			ob.cur = 0
			shards = append(shards, ob)
		}
	}
	for len(shards) > 0 {
		best := 0
		bestAt := shards[0].mail[shards[0].cur].at
		for k := 1; k < len(shards); k++ {
			if at := shards[k].mail[shards[k].cur].at; at < bestAt {
				best, bestAt = k, at
			}
		}
		ob := shards[best]
		visit(&ob.mail[ob.cur])
		ob.cur++
		if ob.cur == len(ob.mail) {
			ob.mail = ob.mail[:0]
			ob.cur = 0
			shards = append(shards[:best], shards[best+1:]...)
		}
	}
	b.shards = shards[:0]
}

// MailPending reports whether any deferred delivery is waiting for a
// Flush — in-flight traffic the cluster's idle/deadlock checks must see.
func (b *Backplane) MailPending() bool {
	for _, id := range b.ids {
		if len(b.out[id].mail) > 0 {
			return true
		}
	}
	return false
}

// Stats returns cumulative launch counts: every packet handed to Send
// (including ones the fault plan then dropped), with retransmissions
// broken out so goodput vs. wire throughput is measurable. Sums the
// per-sender shards.
func (b *Backplane) Stats() (packets, bytes, retransPackets, retransBytes uint64) {
	for _, id := range b.ids {
		ob := b.out[id]
		packets += ob.packets
		bytes += ob.bytes
		retransPackets += ob.retransPkts
		retransBytes += ob.retransBytes
	}
	return
}

// Nodes returns the number of attached endpoints.
func (b *Backplane) Nodes() int { return b.n }
