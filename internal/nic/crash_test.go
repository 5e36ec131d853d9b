package nic

import (
	"bytes"
	"errors"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/interconnect"
)

// TestPeerCrashRebootResequencesNextEpoch: the receiving node of a live
// flow crashes mid-stream. The sender's retransmits die on the downed
// node, the retry cap breaks the link (typed *DeliveryError on the next
// Write), and after the reboot the flow resequences cleanly on the
// bumped epoch — with duplicates armed on the wire — while the
// crash-preserved dedupe horizon still rejects a stale pre-crash copy.
func TestPeerCrashRebootResequencesNextEpoch(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{RetxTimeout: 512, MaxRetries: 2}))
	p.nics[0].SetNIPT(0, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 5})
	pay1 := patternBytesT(40, 64)
	if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, pay1, 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p)
	if p.nics[1].Stats().PacketsReceived != 1 {
		t.Fatal("pre-crash delivery failed")
	}

	// The receiver crashes; the backplane marks its connector dead.
	p.nics[1].Crash()
	p.net.SetNodeDown(1, true)
	if !p.nics[1].down {
		t.Fatal("crashed board not down")
	}
	pay2 := patternBytesT(41, 64)
	if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, pay2, 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p) // launches + retransmits all swallowed; retry cap breaks the link
	s0 := p.nics[0].Stats()
	if s0.DeliveryFailures != 1 {
		t.Fatalf("peer outage did not break the link: %+v", s0)
	}
	if p.net.FaultStats().CrashDrops == 0 {
		t.Fatal("no launch hit the down-node guard")
	}

	// Reboot; duplicates armed on the healed wire.
	p.nics[1].Reboot()
	p.net.SetNodeDown(1, false)
	p.net.SetFaultPlan(interconnect.FaultPlan{Seed: 2, DupRate: 1.0})
	var de *DeliveryError
	if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, pay2, 0); !errors.As(err, &de) {
		t.Fatalf("latched crash outage not surfaced as *DeliveryError: %v", err)
	}
	pay3 := patternBytesT(42, 64)
	if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, pay3, 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p)
	s1 := p.nics[1].Stats()
	if s1.Crashes != 1 {
		t.Fatalf("crash not counted: %+v", s1)
	}
	if s1.PacketsReceived != 2 {
		t.Fatalf("next-epoch delivery failed: %+v", s1)
	}
	if s1.DupDropped == 0 {
		t.Fatalf("armed duplicates never exercised dedupe: %+v", s1)
	}
	if s1.Resurrections != 1 {
		t.Fatalf("receiver did not resurrect from the crash-preserved pool: %+v", s1)
	}
	if r := p.nics[1].rel.peers[0].r; r.epoch == 0 {
		t.Fatal("post-reboot flow still on the crashed epoch")
	}
	got, _ := p.rams[1].Read(addr.PAddr(5*addr.PageSize), 64)
	if !bytes.Equal(got, pay3) {
		t.Fatal("post-reboot payload wrong")
	}

	// A stale fabric copy from the pre-crash epoch: the dedupe horizon
	// survived the crash in host memory, so it is dropped, not delivered.
	before := p.nics[1].Stats()
	p.nics[1].DeliverPacket(mkData(0, 1, 0, 1, addr.PAddr(5*addr.PageSize), pay1))
	p.net.Flush()
	p.clocks[1].RunUntilIdle()
	after := p.nics[1].Stats()
	if after.PacketsReceived != before.PacketsReceived || after.DupDropped != before.DupDropped+1 {
		t.Fatalf("stale pre-crash copy not deduped: before %+v after %+v", before, after)
	}
}

// TestCrashLedgersVolatileBytes: a crash wipes the resequencing buffer
// (wire-carried bytes → CrashDropped), swallows arrivals while down and
// invalidates an in-flight receive DMA via the generation bump — every
// wire-carried byte lands in the crash-drop ledger, and none of them
// reach memory.
func TestCrashLedgersVolatileBytes(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{}))
	rx := p.nics[1]

	// Seq 2 with seq 1 missing parks in the resequencing buffer; seq 1
	// arrives and its receive DMA is scheduled but has not completed.
	rx.DeliverPacket(mkData(0, 1, 0, 2, addr.PAddr(6*addr.PageSize), patternBytesT(50, 64)))
	if rx.ReseqHeldBytes() != 64 {
		t.Fatal("packet not parked in reseq")
	}
	rx.DeliverPacket(mkData(0, 1, 0, 1, addr.PAddr(5*addr.PageSize), patternBytesT(51, 64)))
	// Both DMAs are now scheduled (seq 1 direct, seq 2 drained from
	// reseq). Crash before they complete: the generation bump must
	// invalidate them both.
	rx.Crash()
	p.net.Flush()
	p.clocks[1].RunUntilIdle()
	s := rx.Stats()
	if s.Crashes != 1 {
		t.Fatalf("crash not counted: %+v", s)
	}
	if s.CrashDropped != 2 || s.CrashDropBytes != 128 {
		t.Fatalf("in-flight DMAs not ledgered: %+v", s)
	}
	if s.PacketsReceived != 0 {
		t.Fatalf("crashed board delivered to memory: %+v", s)
	}
	if rx.ReseqHeldBytes() != 0 {
		t.Fatal("reseq buffer survived the crash")
	}
	if _, r := relActive(rx); r != 0 {
		t.Fatal("receiver state survived the crash")
	}
	if relPoolFree(rx) != 1 {
		t.Fatal("crashed receiver state did not return to the pool")
	}
	zero := make([]byte, 64)
	got5, _ := p.rams[1].Read(addr.PAddr(5*addr.PageSize), 64)
	got6, _ := p.rams[1].Read(addr.PAddr(6*addr.PageSize), 64)
	if !bytes.Equal(got5, zero) || !bytes.Equal(got6, zero) {
		t.Fatal("crash-invalidated DMA wrote memory")
	}

	// Arrivals while the board is down join the same ledger.
	rx.DeliverPacket(mkData(0, 1, 0, 3, addr.PAddr(5*addr.PageSize), patternBytesT(52, 64)))
	s = rx.Stats()
	if s.CrashDropped != 3 || s.CrashDropBytes != 192 {
		t.Fatalf("arrival while down not ledgered: %+v", s)
	}
	rx.Reboot()
	if rx.down {
		t.Fatal("reboot left the board down")
	}
}

// TestSenderCrashAbandonsQueuedBytes: packets queued on the crashing
// board (transmitted-but-unacked and pending-unsent) go to the
// observability-only abandoned ledger — their future retransmissions
// die with the board, and the canceled retransmit timer never fires.
func TestSenderCrashAbandonsQueuedBytes(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{
		Window: 1, MaxPending: 8, RetxTimeout: 1 << 40}))
	p.net.SetFaultPlan(interconnect.FaultPlan{Seed: 1, DropRate: 1.0})
	p.nics[0].SetNIPT(0, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 5})
	for i := 0; i < 3; i++ {
		if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, patternBytesT(uint64(60+i), 64), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Window 1: one packet transmitted (and dropped on the wire), two
	// pending behind it, far-future retransmit timer armed.
	if got := len(p.nics[0].rel.peers[1].s.pending); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	p.nics[0].Crash()
	s := p.nics[0].Stats()
	if s.CrashAbandonedPkts != 3 || s.CrashAbandonedBytes != 192 {
		t.Fatalf("queued packets not abandoned: %+v", s)
	}
	if sn, _ := relActive(p.nics[0]); sn != 0 {
		t.Fatal("sender state survived the crash")
	}
	drainPair(p)
	if got := p.nics[0].Stats().Retransmits; got != 0 {
		t.Fatalf("canceled retransmit timer fired %d times", got)
	}

	// Reboot onto a healed wire: the resurrected sender runs on a bumped
	// epoch and the receiver resynchronizes.
	p.nics[0].Reboot()
	p.net.SetFaultPlan(interconnect.FaultPlan{})
	pay := patternBytesT(63, 64)
	if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, pay, 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p)
	s0, s1 := p.nics[0].Stats(), p.nics[1].Stats()
	if s0.Resurrections != 1 {
		t.Fatalf("sender did not resurrect: %+v", s0)
	}
	if s1.PacketsReceived != 1 || s1.DupDropped != 0 {
		t.Fatalf("post-reboot epoch did not deliver exactly once: %+v", s1)
	}
	got, _ := p.rams[1].Read(addr.PAddr(5*addr.PageSize), 64)
	if !bytes.Equal(got, pay) {
		t.Fatal("post-reboot payload wrong")
	}
}

// TestReclaimedThenCrashedNoDoublePop: a destination whose reliability
// state was already idle-reclaimed into the free pool is NOT live state
// at crash time — the crash teardown must not push a second copy of it
// into the pool (a double push would hand the same backing struct to
// two future resurrections). Both sides are checked: the reclaimed
// sender's node crashes, the reclaimed receiver's node crashes.
func TestReclaimedThenCrashedNoDoublePop(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{IdleReclaimAge: 1_000}))
	p.nics[0].SetNIPT(0, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 5})
	if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, patternBytesT(70, 64), 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p)
	p.net.Flush()
	p.clocks[0].Advance(50_000)
	p.net.Flush()
	p.clocks[1].Advance(50_000)
	if p.nics[0].ReclaimIdle() != 1 || p.nics[1].ReclaimIdle() != 1 {
		t.Fatal("idle link not reclaimed on both sides")
	}
	if relPoolFree(p.nics[0]) != 1 || relPoolFree(p.nics[1]) != 1 {
		t.Fatal("reclaim did not pool the state")
	}

	// Crash both nodes: their live reliability maps are empty, so the
	// pools must be untouched — exactly one pooled struct each.
	p.nics[0].Crash()
	p.nics[1].Crash()
	if got := relPoolFree(p.nics[0]); got != 1 {
		t.Fatalf("sender pool = %d after crash of a reclaimed dest, want 1", got)
	}
	if got := relPoolFree(p.nics[1]); got != 1 {
		t.Fatalf("receiver pool = %d after crash of a reclaimed src, want 1", got)
	}
	p.nics[0].Reboot()
	p.nics[1].Reboot()

	// New traffic resurrects each side exactly once from its single
	// pooled struct, on a bumped epoch, with the dedupe memory intact.
	pay := patternBytesT(71, 64)
	if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, pay, 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p)
	s0, s1 := p.nics[0].Stats(), p.nics[1].Stats()
	if s0.Resurrections != 1 || s1.Resurrections != 1 {
		t.Fatalf("resurrections sender=%d receiver=%d, want 1/1", s0.Resurrections, s1.Resurrections)
	}
	if relPoolFree(p.nics[0]) != 0 || relPoolFree(p.nics[1]) != 0 {
		t.Fatal("resurrection did not pop exactly one pooled struct per side")
	}
	if s1.PacketsReceived != 2 || s1.DupDropped != 0 {
		t.Fatalf("post-crash delivery stats %+v", s1)
	}
	got, _ := p.rams[1].Read(addr.PAddr(5*addr.PageSize), 64)
	if !bytes.Equal(got, pay) {
		t.Fatal("post-crash payload wrong")
	}
}
