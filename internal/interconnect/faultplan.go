package interconnect

import (
	"shrimp/internal/sim"
)

// FaultPlan describes a deterministic perturbation of the backplane: a
// hostile wire for the reliability layer in internal/nic to survive.
// All randomness flows from Seed through per-link RNG streams, so the
// same seed applied to the same send sequence always produces the same
// drops, duplicates, corruptions and delays — a lossy run reproduces
// exactly, like everything else in the simulator.
//
// The zero FaultPlan is "wire is perfect" (the paper's reliable Paragon
// backplane assumption) and costs nothing.
type FaultPlan struct {
	// Seed roots every per-link RNG stream and flap phase.
	Seed uint64

	// DropRate is the probability a packet vanishes in flight.
	DropRate float64
	// DupRate is the probability a packet is delivered twice (the
	// second copy after an extra DelayMax-bounded flight).
	DupRate float64
	// CorruptRate is the probability payload (or, for empty-payload
	// control packets, header) bits flip in flight. The packet still
	// arrives; its CRC no longer matches.
	CorruptRate float64
	// DelayRate is the probability a packet is held back by an extra
	// uniform [1, DelayMax] cycles of flight — late delivery that
	// reorders it behind packets launched after it.
	DelayRate float64
	// DelayMax bounds the extra flight of delayed and duplicated
	// packets (default 2000 cycles when a rate needs it).
	DelayMax sim.Cycles

	// FlapPeriod/FlapDown model per-link outages: each directed
	// *physical* fabric link (a router-to-router channel, not a
	// src/dst pair) is down for FlapDown cycles out of every
	// FlapPeriod, at a phase derived from Seed and the link, so links
	// do not flap in lockstep. A packet launched while any link on its
	// routed path is down is dropped — a multi-hop route is only as
	// available as its worst link. Zero disables flapping.
	FlapPeriod sim.Cycles
	FlapDown   sim.Cycles
}

// Enabled reports whether the plan perturbs anything.
func (p FaultPlan) Enabled() bool {
	return p.DropRate > 0 || p.DupRate > 0 || p.CorruptRate > 0 ||
		p.DelayRate > 0 || (p.FlapPeriod > 0 && p.FlapDown > 0)
}

// delayMax returns the configured extra-flight bound with its default.
func (p FaultPlan) delayMax() sim.Cycles {
	if p.DelayMax > 0 {
		return p.DelayMax
	}
	return 2000
}

// FaultStats counts what the plan did to the wire. Byte counters track
// data packets only (PktData) so goodput accounting can partition
// payload bytes exactly; control packets (ACKs) carry no payload.
type FaultStats struct {
	Drops     uint64 // packets dropped by DropRate (all kinds)
	FlapDrops uint64 // packets dropped into a down link window
	Dups      uint64 // extra deliveries created
	Corrupts  uint64 // packets corrupted in flight
	Delays    uint64 // packets held back for extra flight

	DroppedDataPackets uint64 // data packets that never arrived (drop + flap)
	DroppedDataBytes   uint64
	DupDataBytes       uint64 // payload bytes of fabric-created data copies

	// Crash drops are not the plan's doing: they count packets launched
	// while either endpoint node was crashed (cluster.CrashPlan marks
	// nodes down at lockstep barriers). Every link to a down node drops
	// deterministically, and the data-byte ledger keeps the simcheck
	// wire-conservation audit balanced across the crash boundary.
	CrashDrops              uint64
	CrashDroppedDataPackets uint64
	CrashDroppedDataBytes   uint64
}

// add folds another shard's counts in (used to sum per-sender shards).
func (s *FaultStats) add(o FaultStats) {
	s.Drops += o.Drops
	s.FlapDrops += o.FlapDrops
	s.Dups += o.Dups
	s.Corrupts += o.Corrupts
	s.Delays += o.Delays
	s.DroppedDataPackets += o.DroppedDataPackets
	s.DroppedDataBytes += o.DroppedDataBytes
	s.DupDataBytes += o.DupDataBytes
	s.CrashDrops += o.CrashDrops
	s.CrashDroppedDataPackets += o.CrashDroppedDataPackets
	s.CrashDroppedDataBytes += o.CrashDroppedDataBytes
}

// linkFault is the per-(src,dst) fault state: one RNG stream, a pure
// function of (plan seed, src, dst). It lives in the *sender's* outbox
// shard (keyed by destination), so concurrent windows on different
// nodes never share an RNG. Flap phases are not stored here — they are
// per *physical* link and computed statelessly (see flapPhase).
type linkFault struct {
	rng *sim.RNG
}

// linkSeed decorrelates the per-link streams: same plan seed, different
// links, different streams.
func linkSeed(seed uint64, src, dst int) uint64 {
	return seed ^ (uint64(src+1) * 0x9E3779B97F4A7C15) ^ (uint64(dst+1) * 0xC2B2AE3D27D4EB4F)
}

// link returns (creating if needed) the sender-side fault state for the
// pair src→dst. The lazy creation touches only this outbox.
func (ob *outbox) link(plan FaultPlan, src, dst int) *linkFault {
	if lf, ok := ob.links[dst]; ok {
		return lf
	}
	lf := &linkFault{rng: sim.NewRNG(linkSeed(plan.Seed, src, dst))}
	ob.links[dst] = lf
	return lf
}

// flapPhase is the outage phase of the physical directed link a→b: a
// pure function of the plan seed and the router pair, with no RNG
// state, so asking about a link (from any route that crosses it) never
// perturbs the per-pair draw streams.
func (p FaultPlan) flapPhase(a, b int) sim.Cycles {
	return sim.Cycles(linkSeed(p.Seed, a, b)>>17) % p.FlapPeriod
}

// LinkDown reports whether the routed path src→dst is cut by a flap
// outage at the given (sender-clock) time: a multi-hop route is down
// whenever any physical link along its XY path is inside a down
// window. For adjacent nodes this is exactly the single link's window;
// loopback never leaves the local router and is never down.
func (b *Backplane) LinkDown(src, dst int, at sim.Cycles) bool {
	if b.plan.FlapPeriod == 0 || b.plan.FlapDown == 0 || src == dst {
		return false
	}
	for cur := src; cur != dst; {
		next, _ := b.topo.hop(cur, dst)
		if (at+b.plan.flapPhase(cur, next))%b.plan.FlapPeriod < b.plan.FlapDown {
			return true
		}
		cur = next
	}
	return false
}

// wireOutcome is what the fault plan decided for one launched packet.
type wireOutcome struct {
	drop     bool
	flap     bool
	corrupt  bool
	dup      bool
	extra    sim.Cycles // additional flight for the primary copy
	dupExtra sim.Cycles // additional flight for the duplicate copy
}

// perturb draws the plan's verdict for a packet launched at start. The
// draws are unconditional so one packet always consumes the same number
// of stream values regardless of outcome. All state it touches lives in
// the sender's outbox shard.
func (b *Backplane) perturb(ob *outbox, pkt *Packet, start sim.Cycles) wireOutcome {
	var out wireOutcome
	p := b.plan
	if !p.Enabled() {
		return out
	}
	lf := ob.link(p, pkt.Src, pkt.Dst)
	dropDraw := lf.rng.Float64()
	dupDraw := lf.rng.Float64()
	corruptDraw := lf.rng.Float64()
	delayDraw := lf.rng.Float64()

	if b.LinkDown(pkt.Src, pkt.Dst, start) {
		out.drop, out.flap = true, true
		return out
	}
	if dropDraw < p.DropRate {
		out.drop = true
		return out
	}
	if corruptDraw < p.CorruptRate {
		out.corrupt = true
	}
	if delayDraw < p.DelayRate {
		out.extra = 1 + sim.Cycles(lf.rng.Intn(int(p.delayMax())))
	}
	if dupDraw < p.DupRate {
		out.dup = true
		out.dupExtra = 1 + sim.Cycles(lf.rng.Intn(int(p.delayMax())))
	}
	return out
}

// corruptPacket flips one byte of the payload (or, for empty-payload
// control packets, one bit of the Ack field) on a private copy, leaving
// the sender's retransmit buffer untouched. The CRC field is preserved,
// which is exactly what makes the corruption detectable.
func (lf *linkFault) corruptPacket(pkt *Packet) {
	if len(pkt.Payload) > 0 {
		corrupted := append([]byte(nil), pkt.Payload...)
		corrupted[lf.rng.Intn(len(corrupted))] ^= 1 << (lf.rng.Uint64() % 8)
		pkt.Payload = corrupted
		return
	}
	pkt.Ack ^= 1 << (lf.rng.Uint64() % 64)
}
