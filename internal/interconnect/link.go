package interconnect

import "shrimp/internal/sim"

// A link is one directed fabric channel between adjacent routers. It
// is a busy-until reservation, exactly like the per-sender inject
// FIFO: a packet entering at t starts at max(t, free) and holds the
// link for its wire time, so packets queued behind it form a FIFO in
// charge order. Contention is only ever charged in the deterministic
// (arrive, src, seq) merge order of Flush, so link state never races.
type link struct {
	free sim.Cycles // busy-until horizon
	busy uint64     // cycles the link spent moving bytes
	wait uint64     // cycles packets spent queued behind it
	pkts uint64     // packets that crossed it
	peak uint64     // deepest FIFO queue observed at entry
}

// Directions index the four outgoing links of a router.
const (
	dirPosX = 0
	dirNegX = 1
	dirPosY = 2
	dirNegY = 3
)

// linkPeer returns the router a link slot points at.
func (t Topology) linkPeer(slot int) int {
	cur, dir := slot/4, slot%4
	cx, cy := t.Coord(cur)
	w, h := t.Width, t.Height()
	switch dir {
	case dirPosX:
		return cy*w + (cx+1)%w
	case dirNegX:
		return cy*w + (cx-1+w)%w
	case dirPosY:
		return ((cy+1)%h)*w + cx
	default:
		return ((cy-1+h)%h)*w + cx
	}
}

// fabricCycles is the wire time for n bytes on one routed fabric link,
// at the topology's capacity (falling back to the host-interface rate).
func (b *Backplane) fabricCycles(n int) sim.Cycles {
	return b.costs.LinkCyclesAt(n, b.topo.LinkBytesPerCyc)
}

// zeroLoadFlight is the uncontended fabric traversal time from src to
// dst: one LinkLatency per routed link plus the trailing wire time.
// Loopback (src == dst) still crosses the local router once
// (Hops(src, src) == 1).
func (b *Backplane) zeroLoadFlight(src, dst int, payload int) sim.Cycles {
	return b.Hops(src, dst)*b.costs.LinkLatency + b.fabricCycles(payload)
}

// chargeArrival walks pkt's routed path, charging busy-until occupancy
// on every directed link, and returns the contention-adjusted arrival.
// at is the zero-load arrival including any fault-plan extra delay;
// contention can only push the arrival later, never earlier, so the
// Chandy–Misra bound derived from zero-load flight time stays
// conservative. Only cross-node packets (from Flush) are charged:
// loopback never touches fabric links.
//
// The walk enters the fabric at the inject start (pkt.LaunchedAt); the
// fault-plan extra — at minus the zero-load arrival — is re-applied
// downstream of the walk, so a "late" packet still holds its normal
// link slots and traffic launched after it can overtake it (the delay
// fault must be able to reorder deliveries, not just shift them).
func (b *Backplane) chargeArrival(pkt *Packet, at sim.Cycles) sim.Cycles {
	src, dst := pkt.Src, pkt.Dst
	wire := b.fabricCycles(len(pkt.Payload))
	extra := at - pkt.LaunchedAt - b.zeroLoadFlight(src, dst, len(pkt.Payload))
	t := pkt.LaunchedAt
	cur := src
	for cur != dst {
		next, slot := b.topo.hop(cur, dst)
		l := &b.links[slot]
		start := t
		if l.free > start {
			start = l.free
			l.wait += uint64(start - t)
			q := uint64(1)
			if wire > 0 {
				q = uint64((start - t + wire - 1) / wire)
			}
			if q > l.peak {
				l.peak = q
			}
		}
		l.free = start + wire
		l.busy += uint64(wire)
		l.pkts++
		t = start + b.costs.LinkLatency
		cur = next
	}
	return t + wire + extra
}

// LinkStat is one directed link's lifetime telemetry.
type LinkStat struct {
	From, To   int        // router ids (node i sits at router i)
	BusyCycles uint64     // cycles spent moving bytes
	WaitCycles uint64     // cycles packets queued behind the link
	Packets    uint64     // packets that crossed it
	PeakQueue  uint64     // deepest FIFO backlog observed at entry
	FreeAt     sim.Cycles // busy-until horizon at snapshot time
}

// LinkStats returns per-link telemetry for every link that carried at
// least one packet, in deterministic (router, direction) order. It is
// a pure observation: reading it never perturbs timing.
func (b *Backplane) LinkStats() []LinkStat {
	var out []LinkStat
	for i := range b.links {
		l := &b.links[i]
		if l.pkts == 0 {
			continue
		}
		out = append(out, LinkStat{
			From:       i / 4,
			To:         b.topo.linkPeer(i),
			BusyCycles: l.busy,
			WaitCycles: l.wait,
			Packets:    l.pkts,
			PeakQueue:  l.peak,
			FreeAt:     l.free,
		})
	}
	return out
}

// Topology returns the fabric declaration the backplane was built over
// (width resolved).
func (b *Backplane) Topology() Topology { return b.topo }
