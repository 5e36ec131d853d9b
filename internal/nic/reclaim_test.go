package nic

import (
	"errors"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/interconnect"
)

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
	if s, _ := p.nics[0].RelActive(); s != 1 {
		t.Fatalf("sender state not established")
	}
	if _, r := p.nics[1].RelActive(); r != 1 {
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
	if s, _ := p.nics[0].RelActive(); s != 0 {
		t.Fatalf("sender state survived reclaim")
	}
	if p.nics[0].RelPoolFree() != 1 || p.nics[1].RelPoolFree() != 1 {
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
	if p.nics[0].RelPoolFree() != 0 {
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
	if s, _ := p.nics[0].RelActive(); s != 1 {
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
	if _, r := rx.RelActive(); r != 1 {
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
