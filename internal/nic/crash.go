package nic

// Node crash–restart support: the board half of cluster.CrashPlan.
//
// Crash models a power loss: everything volatile on the board — the
// reliability sublayer's per-destination protocol state, the PIO FIFO,
// the automatic-update combining buffer, the NIPT cache lines — is
// gone. The host-memory structures survive: the authoritative NIPT
// backing table (`nipt`), and the compact epoch memories the
// reclamation machinery already keeps (`senderMem`/`recvMem`). Reboot
// therefore needs to restore nothing explicitly: the NIPT refaults
// line-by-line from the backing table, and reliability state
// resurrects from the epoch memories through the ordinary sender()/
// receiver() pool path, epoch-bumped so peers resynchronize exactly as
// after breakLink.
//
// Determinism: Crash and Reboot are called only by the cluster at
// lockstep barriers (after Backplane.Flush, before any worker runs),
// in node order — the same publication discipline as ReclaimIdle — so
// a chaos run is bit-identical at any worker count. The teardown
// iterates live state in sorted-key order for the same reason.
//
// Byte accounting across the boundary splits two ways:
//
//   - pending/unacked packets wiped here were queued on the dead board;
//     the wipe abandons their *future* (re)transmissions, not any bytes
//     already on the wire (every launched copy is separately accounted
//     where it lands or drops). They go to the CrashAbandoned ledger,
//     which is observability-only.
//   - resequencing-buffer payloads were wire-carried and now can never
//     reach memory; they go to the CrashDropped ledger, which the
//     simcheck wire-conservation audit charges against launched bytes
//     (alongside arrivals while down and receive DMAs invalidated by
//     the generation bump — see DeliverPacket and deliverData).

import "shrimp/internal/sim"

// Crash powers the board off. Packets already in flight toward it are
// swallowed by the backplane's down-node guard or the DeliverPacket
// down guard; events the pre-crash board scheduled observe the
// generation bump and bail.
func (n *Interface) Crash() {
	n.down = true
	n.gen++
	n.stats.Crashes++

	if n.rel != nil {
		for _, dest := range sortedKeys(n.rel.senders) {
			s := n.rel.senders[dest]
			n.clock.Cancel(s.timer)
			s.timer = sim.NoEvent
			for _, p := range s.pending {
				n.stats.CrashAbandonedPkts++
				n.stats.CrashAbandonedBytes += uint64(len(p.payload))
			}
			for _, p := range s.unacked {
				n.stats.CrashAbandonedPkts++
				n.stats.CrashAbandonedBytes += uint64(len(p.payload))
			}
			// Keep the epoch in host memory, exactly like an idle
			// reclaim: post-reboot traffic resurrects the sender at
			// epoch+1 and the receiver resynchronizes through its
			// ordinary higher-epoch path.
			n.rel.senderMem[dest] = s.epoch
			delete(n.rel.senders, dest)
			s.pending = s.pending[:0]
			s.unacked = s.unacked[:0]
			s.broken = nil
			n.rel.senderPool = append(n.rel.senderPool, s)
		}
		for _, src := range sortedKeys(n.rel.receivers) {
			r := n.rel.receivers[src]
			for _, q := range r.reseq {
				n.stats.CrashDropped++
				n.stats.CrashDropBytes += uint64(len(q.Payload))
			}
			for k := range r.reseq {
				delete(r.reseq, k)
			}
			// Keep the dedupe horizon in host memory so a peer whose
			// link never broke during a short outage cannot replay
			// packets delivered before the crash.
			n.rel.recvMem[src] = rxMemory{epoch: r.epoch, expected: r.expected}
			delete(n.rel.receivers, src)
			n.rel.recvPool = append(n.rel.recvPool, r)
		}
		n.publishReclaimGauges()
	}

	// The PIO FIFO and the automatic-update combining buffer die with
	// the board.
	n.pio = pioState{}
	n.clock.Cancel(n.auto.flushEv)
	n.auto.flushEv = sim.NoEvent
	n.auto.active = false
	n.auto.data = n.auto.data[:0]

	// NIPT cache lines (and any transfer pin) are volatile; the backing
	// table in host memory stays authoritative.
	if n.cache != nil {
		for idx := range n.cache.lines {
			delete(n.cache.lines, idx)
		}
		n.cache.hasPin = false
	}
}

// Reboot powers the board back on. The NIPT is "rebuilt" implicitly:
// the host-memory backing table was never lost, and with a bounded
// cache the working set refaults through the ordinary miss path,
// paying refill costs just like a cold board.
func (n *Interface) Reboot() {
	n.down = false
}

// Down reports whether the board is crashed.
func (n *Interface) Down() bool { return n.down }
