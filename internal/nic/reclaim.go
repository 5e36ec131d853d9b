package nic

import "shrimp/internal/sim"

// Reliability-state reclamation: the second half of the bounded-NIC
// story. Per-destination protocol state (epochs, sequence numbers,
// retransmit buffers, credit windows) is exactly the per-connection
// footprint OpenURMA shows dominating modern NICs, and under connection
// churn — thousands of short-lived flows — it would otherwise grow
// with the total number of peers ever spoken to. ReclaimIdle ages
// quiescent links out into free pools, keeping only a compact epoch
// memory per destination in host memory; new traffic to a reclaimed
// destination resurrects the state from the pool with the epoch bumped
// past the remembered one, so the remote end resynchronizes through the
// protocol's ordinary higher-epoch path.
//
// Barrier safety: the cluster calls ReclaimIdle at the top of every
// lockstep window, right after Backplane.Flush and before any worker
// runs — the same publication point as every other cross-node control
// action. Mid-window, workers only ever touch their own node's state,
// so reclamation observes barrier-consistent quiescence, walks the peer
// table in node order, and is therefore bit-identical at any worker
// count.

// ReclaimIdle returns idle per-destination reliability state to the
// board's free pools and reports how many links were reclaimed. A
// sender is reclaimable only when fully quiescent — nothing pending or
// unacked, no retransmit timer armed, no latched DeliveryError waiting
// to be consumed — and idle past the configured age; a receiver only
// when its resequencing buffer holds nothing. No-op unless the
// reliability sublayer is on and IdleReclaimAge is set.
//
// A barrier before the watermark nextDue skips the scan: nextDue is
// the smallest lastActive+age among the links the last scan kept, and
// is lowered whenever a link is created, so no live link can be due
// before it. That is exact because lastActive never decreases.
func (n *Interface) ReclaimIdle() int {
	if n.rel == nil {
		return 0
	}
	defer n.publishReclaimGauges()
	age := n.rel.cfg.IdleReclaimAge
	if age <= 0 {
		return 0
	}
	now := n.clock.Now()
	if now < n.rel.nextDue {
		return 0
	}
	next := sim.Forever
	reclaimed := 0
	for i := range n.rel.peers {
		pr := &n.rel.peers[i]
		if s := pr.s; s != nil {
			if at := s.lastActive + age; now < at || !senderQuiescent(s) {
				next = min(next, at)
			} else {
				n.rel.retireSender(pr)
				n.stats.SenderReclaims++
				reclaimed++
			}
		}
		if r := pr.r; r != nil {
			if at := r.lastActive + age; now < at || r.held != 0 {
				next = min(next, at)
			} else {
				n.rel.retireReceiver(pr)
				n.stats.ReceiverReclaims++
				reclaimed++
			}
		}
	}
	n.rel.nextDue = next
	return reclaimed
}

// noteLinkCreated lowers the reclaim watermark for a link sender or
// receiver just created or resurrected, active now.
func (n *Interface) noteLinkCreated() {
	if age := n.rel.cfg.IdleReclaimAge; age > 0 {
		n.rel.nextDue = min(n.rel.nextDue, n.clock.Now()+age)
	}
}

// senderQuiescent reports whether nothing at all is in flight or owed
// on the link. A latched broken error blocks reclamation: it must be
// consumed by the next Write, and reclaiming it would silently eat a
// delivery failure.
func senderQuiescent(s *relSender) bool {
	return len(s.pending) == 0 && len(s.unacked) == 0 && s.timer == sim.NoEvent && s.broken == nil
}

func (n *Interface) publishReclaimGauges() {
	n.m.relSenders.Set(int64(n.rel.senders))
	n.m.relReceivers.Set(int64(n.rel.receivers))
	n.m.relPoolFree.Set(int64(len(n.rel.senderPool) + len(n.rel.recvPool)))
}
