package nic

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/bus"
	"shrimp/internal/device"
	"shrimp/internal/interconnect"
	"shrimp/internal/machine"
	"shrimp/internal/mem"
	"shrimp/internal/raceflag"
	"shrimp/internal/sim"
)

// relActive returns n's live per-destination sender and per-source
// receiver state counts.
func relActive(n *Interface) (senders, receivers int) {
	if n.rel == nil {
		return 0, 0
	}
	return n.rel.senders, n.rel.receivers
}

// relPoolFree returns the number of reclaimed structs in n's free pools.
func relPoolFree(n *Interface) int {
	if n.rel == nil {
		return 0
	}
	return len(n.rel.senderPool) + len(n.rel.recvPool)
}

// TestIdleReclaimAndResurrection: a quiescent link ages out into the
// free pools, and the next traffic to the destination resurrects the
// state — on a bumped epoch, so the receiver resynchronizes and the new
// payload is delivered exactly once.
func TestIdleReclaimAndResurrection(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{IdleReclaimAge: 10_000}))
	p.nics[0].SetNIPT(3, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7})
	if err := p.nics[0].Write(device.DevAddr{Page: 3, Off: 0}, patternBytesT(1, 64), 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p)
	if s, _ := relActive(p.nics[0]); s != 1 {
		t.Fatalf("sender state not established")
	}
	if _, r := relActive(p.nics[1]); r != 1 {
		t.Fatalf("receiver state not established")
	}

	// Young state is not reclaimed; aged-out state is.
	if got := p.nics[0].ReclaimIdle(); got != 0 {
		t.Fatalf("reclaimed %d links before the idle age", got)
	}
	p.net.Flush()
	p.clocks[0].Advance(20_000)
	p.net.Flush()
	p.clocks[1].Advance(20_000)
	if got := p.nics[0].ReclaimIdle(); got != 1 {
		t.Fatalf("sender reclaim = %d, want 1", got)
	}
	if got := p.nics[1].ReclaimIdle(); got != 1 {
		t.Fatalf("receiver reclaim = %d, want 1", got)
	}
	if s, _ := relActive(p.nics[0]); s != 0 {
		t.Fatalf("sender state survived reclaim")
	}
	if relPoolFree(p.nics[0]) != 1 || relPoolFree(p.nics[1]) != 1 {
		t.Fatalf("reclaimed state did not land in the free pools")
	}
	if s := p.nics[0].Stats(); s.SenderReclaims != 1 {
		t.Fatalf("sender stats %+v", s)
	}
	if s := p.nics[1].Stats(); s.ReceiverReclaims != 1 {
		t.Fatalf("receiver stats %+v", s)
	}

	// Resurrection: new traffic re-establishes the link from the pool.
	if err := p.nics[0].Write(device.DevAddr{Page: 3, Off: 128}, patternBytesT(2, 64), 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p)
	if s := p.nics[0].Stats(); s.Resurrections != 1 {
		t.Fatalf("sender resurrections = %d, want 1", s.Resurrections)
	}
	if s := p.nics[1].Stats(); s.Resurrections != 1 {
		t.Fatalf("receiver resurrections = %d, want 1", s.Resurrections)
	}
	if relPoolFree(p.nics[0]) != 0 {
		t.Fatalf("resurrection did not pop the free pool")
	}
	s1 := p.nics[1].Stats()
	if s1.PacketsReceived != 2 || s1.DupDropped != 0 {
		t.Fatalf("post-resurrection delivery stats %+v", s1)
	}
	got, err := p.rams[1].Read(addr.PAddr(7)<<addr.PageShift|128, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := patternBytesT(2, 64)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("post-resurrection payload corrupt at byte %d", i)
		}
	}
}

// TestReclaimRefusedWhileRetransmitPending: a link with unacked packets
// and an armed retransmit timer is not quiescent, no matter how stale
// its last activity stamp is.
func TestReclaimRefusedWhileRetransmitPending(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{
		RetxTimeout: 1 << 40, IdleReclaimAge: 1_000}))
	p.net.SetFaultPlan(interconnect.FaultPlan{Seed: 1, DropRate: 1.0})
	p.nics[0].SetNIPT(3, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7})
	if err := p.nics[0].Write(device.DevAddr{Page: 3, Off: 0}, patternBytesT(3, 64), 0); err != nil {
		t.Fatal(err)
	}
	// The packet was dropped on the wire; the unacked buffer holds it
	// and the (far-future) retransmit timer is armed.
	p.net.Flush()
	p.clocks[0].Advance(50_000)
	if got := p.nics[0].ReclaimIdle(); got != 0 {
		t.Fatalf("reclaimed a link with a retransmit pending")
	}
	if s, _ := relActive(p.nics[0]); s != 1 {
		t.Fatalf("pending sender state vanished")
	}
}

// TestReclaimRefusedWhileBrokenLatched: a latched DeliveryError must be
// consumed by the next Write, never silently reclaimed away.
func TestReclaimRefusedWhileBrokenLatched(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{
		RetxTimeout: 64, MaxRetries: 2, IdleReclaimAge: 1_000}))
	p.net.SetFaultPlan(interconnect.FaultPlan{Seed: 1, DropRate: 1.0})
	p.nics[0].SetNIPT(3, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7})
	if err := p.nics[0].Write(device.DevAddr{Page: 3, Off: 0}, patternBytesT(4, 64), 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p) // retries exhaust; the link breaks and latches
	if s := p.nics[0].Stats(); s.DeliveryFailures != 1 {
		t.Fatalf("link did not break: %+v", s)
	}
	p.net.Flush()
	p.clocks[0].Advance(100_000)
	if got := p.nics[0].ReclaimIdle(); got != 0 {
		t.Fatalf("reclaimed a link with a latched delivery error")
	}

	// Consume the latch (epoch-recovery pattern from
	// TestRetryCapSurfacesTypedError), heal the wire, redeliver.
	var derr *DeliveryError
	err := p.nics[0].Write(device.DevAddr{Page: 3, Off: 0}, patternBytesT(4, 64), 0)
	if !errors.As(err, &derr) {
		t.Fatalf("latched error not surfaced: %v", err)
	}
	p.net.SetFaultPlan(interconnect.FaultPlan{})
	if err := p.nics[0].Write(device.DevAddr{Page: 3, Off: 0}, patternBytesT(5, 64), 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p)
	if s := p.nics[1].Stats(); s.PacketsReceived != 1 {
		t.Fatalf("next-epoch delivery failed: %+v", s)
	}
	// Now fully quiescent: reclamation proceeds.
	p.net.Flush()
	p.clocks[0].Advance(100_000)
	if got := p.nics[0].ReclaimIdle(); got != 1 {
		t.Fatalf("healed idle link not reclaimed (got %d)", got)
	}
}

// TestReceiverReclaimRefusedWithReseqHeld: parked out-of-order packets
// are undelivered bytes; the receiver holding them cannot be reclaimed.
func TestReceiverReclaimRefusedWithReseqHeld(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{IdleReclaimAge: 1_000}))
	rx := p.nics[1]
	// Seq 2 with seq 1 missing parks in the resequencing buffer.
	rx.DeliverPacket(mkData(0, 1, 0, 2, addr.PAddr(7)<<addr.PageShift, patternBytesT(9, 64)))
	p.net.Flush()
	p.clocks[1].Advance(50_000)
	if got := rx.ReclaimIdle(); got != 0 {
		t.Fatalf("reclaimed a receiver holding reseq bytes")
	}
	if _, r := relActive(rx); r != 1 {
		t.Fatalf("receiver state vanished")
	}
}

// TestReceiverResurrectionDedupesStaleDuplicate: the reclaimed
// receiver's (epoch, expected) memory must survive the round trip
// through the pool, or a stale fabric duplicate arriving after the
// reclaim would be delivered a second time.
func TestReceiverResurrectionDedupesStaleDuplicate(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{IdleReclaimAge: 1_000}))
	rx := p.nics[1]
	pkt := mkData(0, 1, 0, 1, addr.PAddr(7)<<addr.PageShift, patternBytesT(6, 64))
	rx.DeliverPacket(pkt)
	p.net.Flush()
	p.clocks[1].Advance(10_000)
	if s := rx.Stats(); s.PacketsReceived != 1 {
		t.Fatalf("first delivery failed: %+v", s)
	}
	p.net.Flush()
	p.clocks[1].Advance(50_000)
	if got := rx.ReclaimIdle(); got != 1 {
		t.Fatalf("idle receiver not reclaimed")
	}
	// A duplicate of the already-delivered packet (same epoch, same
	// seq) arrives after the reclaim.
	rx.DeliverPacket(mkData(0, 1, 0, 1, addr.PAddr(7)<<addr.PageShift, patternBytesT(6, 64)))
	p.net.Flush()
	p.clocks[1].Advance(10_000)
	s := rx.Stats()
	if s.PacketsReceived != 1 || s.DupDropped != 1 || s.Resurrections != 1 {
		t.Fatalf("stale duplicate handling after resurrection: %+v", s)
	}
}

// TestReclaimIdleNothingDueAllocs: a barrier at which no link is old
// enough to reclaim costs no allocation, however many links are live.
func TestReclaimIdleNothingDueAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p := newPair(t, relConfig(ReliabilityConfig{IdleReclaimAge: 1_000_000}))
	p.nics[0].SetNIPT(3, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7})
	if err := p.nics[0].Write(device.DevAddr{Page: 3}, patternBytesT(1, 64), 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p)
	if s, _ := relActive(p.nics[0]); s != 1 {
		t.Fatal("sender state not established")
	}
	if _, r := relActive(p.nics[1]); r != 1 {
		t.Fatal("receiver state not established")
	}
	for _, n := range p.nics {
		n := n
		if allocs := testing.AllocsPerRun(100, func() {
			if n.ReclaimIdle() != 0 {
				t.Fatal("reclaimed a link before its idle age")
			}
		}); allocs != 0 {
			t.Fatalf("node %d: ReclaimIdle with nothing due allocates %.1f objects, want 0", n.NodeID(), allocs)
		}
	}
}

// reclaimByFullScan is ReclaimIdle without the watermark: it visits
// every live link at every call, in node order.
func reclaimByFullScan(n *Interface) int {
	age, now := n.rel.cfg.IdleReclaimAge, n.clock.Now()
	reclaimed := 0
	for i := range n.rel.peers {
		pr := &n.rel.peers[i]
		if s := pr.s; s != nil && senderQuiescent(s) && now >= s.lastActive+age {
			n.rel.retireSender(pr)
			n.stats.SenderReclaims++
			reclaimed++
		}
		if r := pr.r; r != nil && r.held == 0 && now >= r.lastActive+age {
			n.rel.retireReceiver(pr)
			n.stats.ReceiverReclaims++
			reclaimed++
		}
	}
	return reclaimed
}

// relState renders a board's reliability state, peer by peer, for
// comparing two boards.
func relState(n *Interface) string {
	var b strings.Builder
	for i, pr := range n.rel.peers {
		if s := pr.s; s != nil {
			fmt.Fprintf(&b, "s%d:e%d,a%d,p%d ", i, s.epoch, s.lastActive, len(s.pending))
		}
		if r := pr.r; r != nil {
			fmt.Fprintf(&b, "r%d:e%d,x%d,a%d,q%d ", i, r.epoch, r.expected, r.lastActive, r.held)
		}
		fmt.Fprintf(&b, "mem%d:%v,e%d,%v,e%d,x%d ", i, pr.sKept, pr.sEpoch, pr.rKept, pr.rEpoch, pr.rExpected)
	}
	fmt.Fprintf(&b, "live %d %d pools %d %d %+v",
		n.rel.senders, n.rel.receivers, len(n.rel.senderPool), len(n.rel.recvPool), n.stats)
	return b.String()
}

// newBoard builds node 0's board alone on a declared fabric of the
// given size: enough for tests that drive its link state by hand.
func newBoard(nodes int, cfg Config) *Interface {
	costs := machine.SHRIMP1996()
	clock := sim.NewClock()
	net := interconnect.New(costs, interconnect.Mesh(nodes))
	return New(0, clock, costs, mem.NewPhysical(64), bus.New(clock, costs), net, cfg)
}

// TestReclaimWatermarkMatchesFullScan: ReclaimIdle with its watermark
// reclaims exactly what a scan of every link would, call for call, on
// random histories of link creation, resurrection, activity, and
// quiescence changes that move no lastActive.
func TestReclaimWatermarkMatchesFullScan(t *testing.T) {
	rng := sim.NewRNG(13)
	skipped := 0
	for trial := 0; trial < 20; trial++ {
		// Times and ages are multiples of 100, so links often fall due
		// exactly at a barrier.
		cfg := relConfig(ReliabilityConfig{IdleReclaimAge: sim.Cycles(100 * (5 + rng.Intn(40)))})
		a, b := newBoard(8, cfg), newBoard(8, cfg)
		for step := 0; step < 300; step++ {
			dt := sim.Cycles(100 * rng.Intn(12))
			a.clock.Advance(dt)
			b.clock.Advance(dt)
			key := rng.Intn(8)
			switch op := rng.Intn(8); op {
			case 0, 1: // traffic to a destination
				a.sender(key).lastActive = a.clock.Now()
				b.sender(key).lastActive = b.clock.Now()
			case 2, 3: // traffic from a source
				a.receiver(key).lastActive = a.clock.Now()
				b.receiver(key).lastActive = b.clock.Now()
			case 4: // a sender gains or drains a queued packet
				for _, n := range []*Interface{a, b} {
					if s := n.rel.peers[key].s; s != nil {
						if len(s.pending) == 0 {
							s.pending = append(s.pending, &relPkt{})
						} else {
							s.pending = s.pending[:0]
						}
					}
				}
			case 5: // a receiver parks or releases an out-of-order packet
				for _, n := range []*Interface{a, b} {
					if r := n.rel.peers[key].r; r != nil {
						if r.held == 0 {
							r.reseq[0], r.held = &interconnect.Packet{}, 1
						} else {
							r.reseq[0], r.held = nil, 0
						}
					}
				}
			default: // a barrier
				if a.clock.Now() < a.rel.nextDue {
					skipped++
				}
				if g, w := a.ReclaimIdle(), reclaimByFullScan(b); g != w {
					t.Fatalf("trial %d step %d: ReclaimIdle reclaimed %d links, the full scan %d", trial, step, g, w)
				}
			}
			if g, w := relState(a), relState(b); g != w {
				t.Fatalf("trial %d step %d: state differs\nReclaimIdle: %s\nfull scan:   %s", trial, step, g, w)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no barrier fell below the watermark; the comparison never covered a skipped scan")
	}
}
