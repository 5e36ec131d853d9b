package nic

import (
	"bytes"
	"errors"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/interconnect"
	"shrimp/internal/raceflag"
	"shrimp/internal/sim"
)

func relConfig(rc ReliabilityConfig) Config {
	rc.Enabled = true
	return Config{NIPTPages: 16, Reliability: rc}
}

// drainPair runs both node clocks as one merged event loop: each round
// flushes the backplane mailboxes, then advances every clock to the
// globally-earliest pending event, so cross-node ordering (data arrival
// vs. retransmit timer vs. ACK arrival) is honored exactly as a shared
// clock would. These are the semantics cluster.DrainHardware reproduces
// exactly (its reference loop is this one); it skips the flush and the
// scan while a single node fires alone.
func drainPair(p *pair) {
	for {
		p.net.Flush()
		next := sim.Forever
		for _, c := range p.clocks {
			if at, ok := c.NextEventAt(); ok && at < next {
				next = at
			}
		}
		if next == sim.Forever {
			return
		}
		for _, c := range p.clocks {
			c.AdvanceTo(next)
		}
	}
}

// mkData hand-crafts a protocol-correct data packet, the way tests
// simulate specific wire histories.
func mkData(src, dst int, epoch uint32, seq uint64, dest addr.PAddr, payload []byte) *interconnect.Packet {
	pkt := &interconnect.Packet{
		Src: src, Dst: dst, Kind: interconnect.PktData,
		Epoch: epoch, Seq: seq, DestAddr: dest,
		Payload: append([]byte(nil), payload...),
	}
	pkt.CRC = packetCRC(new([crcHeaderLen]byte), pkt)
	return pkt
}

// TestReliableBasicDelivery: the happy path still works with the
// sublayer on — data lands byte-exact and the ACK clears the window.
func TestReliableBasicDelivery(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{}))
	p.nics[0].SetNIPT(3, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7})
	payload := patternBytesT(1, 128)
	if err := p.nics[0].Write(device.DevAddr{Page: 3, Off: 256}, payload, 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p)
	got, err := p.rams[1].Read(addr.PAddr(7*addr.PageSize+256), len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload not delivered byte-exact")
	}
	s0, s1 := p.nics[0].Stats(), p.nics[1].Stats()
	if s0.PacketsSent != 1 || s0.AcksReceived != 1 || s0.Retransmits != 0 {
		t.Fatalf("sender stats %+v", s0)
	}
	if s1.PacketsReceived != 1 || s1.AcksSent != 1 {
		t.Fatalf("receiver stats %+v", s1)
	}
	if s := p.nics[0].rel.peers[1].s; len(s.unacked) != 0 || s.timer != sim.NoEvent {
		t.Fatal("window not cleared after cumulative ACK")
	}
}

// TestAckLostRetransmitDedupe: the ACK for a delivered packet is lost,
// the sender's timeout retransmits, and the receiver dedupes the copy
// (memory written exactly once) while re-ACKing so the sender moves on.
func TestAckLostRetransmitDedupe(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{}))
	p.nics[0].SetNIPT(0, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 5})
	payload := patternBytesT(2, 64)
	if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, payload, 0); err != nil {
		t.Fatal(err)
	}
	// Deliver the data; the ACK is now in flight toward node 0 but we
	// model it lost by firing the sender's timeout by hand first.
	p.net.Flush()
	p.clocks[1].RunUntilIdle()
	if p.nics[1].Stats().PacketsReceived != 1 {
		t.Fatal("original not delivered")
	}
	s := p.nics[0].rel.peers[1].s
	p.nics[0].onRetxTimeout(s)
	if p.nics[0].Stats().Retransmits != 1 {
		t.Fatal("timeout did not retransmit")
	}
	drainPair(p)
	s1 := p.nics[1].Stats()
	if s1.PacketsReceived != 1 {
		t.Fatalf("duplicate was delivered: received %d", s1.PacketsReceived)
	}
	if s1.DupDropped != 1 || s1.DupBytes != uint64(len(payload)) {
		t.Fatalf("dedupe stats %+v", s1)
	}
	if s1.AcksSent != 2 {
		t.Fatalf("receiver should re-ACK the duplicate: AcksSent=%d", s1.AcksSent)
	}
	got, _ := p.rams[1].Read(addr.PAddr(5*addr.PageSize), len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted by retransmission")
	}
	if len(s.unacked) != 0 || s.timer != sim.NoEvent {
		t.Fatal("sender window not cleared")
	}
	if p.nics[0].Stats().DupAcks == 0 {
		t.Fatal("second ACK should have counted as a dup-ACK")
	}
}

// TestRetransmitRacesLateOriginal: packet 2 arrives early (gap →
// resequencing buffer), packet 1 fills the gap and drains the buffer in
// order, then a late copy of packet 2 — the reordered original racing
// its own retransmission — is deduped.
func TestRetransmitRacesLateOriginal(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{}))
	rx := p.nics[1]
	pay1, pay2 := patternBytesT(3, 64), patternBytesT(4, 64)
	d1 := addr.PAddr(5 * addr.PageSize)
	d2 := addr.PAddr(6 * addr.PageSize)

	rx.recvData(mkData(0, 1, 0, 2, d2, pay2)) // out of order: held
	if held := rx.ReseqHeldBytes(); held != 64 {
		t.Fatalf("reseq held %d bytes, want 64", held)
	}
	if rx.Stats().AcksSent != 1 {
		t.Fatal("gap should trigger a dup-ACK")
	}
	rx.recvData(mkData(0, 1, 0, 1, d1, pay1)) // fills the gap, drains reseq
	p.net.Flush()
	p.clocks[1].RunUntilIdle() // receive DMAs
	if got := rx.Stats().PacketsReceived; got != 2 {
		t.Fatalf("received %d packets, want 2", got)
	}
	if rx.ReseqHeldBytes() != 0 {
		t.Fatal("reseq buffer not drained")
	}
	rx.recvData(mkData(0, 1, 0, 2, d2, pay2)) // the late original of #2
	p.net.Flush()
	p.clocks[1].RunUntilIdle()
	s := rx.Stats()
	if s.PacketsReceived != 2 || s.DupDropped != 1 {
		t.Fatalf("late original not deduped: %+v", s)
	}
	got1, _ := p.rams[1].Read(d1, 64)
	got2, _ := p.rams[1].Read(d2, 64)
	if !bytes.Equal(got1, pay1) || !bytes.Equal(got2, pay2) {
		t.Fatal("reordered delivery corrupted memory")
	}
	if r := rx.rel.peers[0].r; r.expected != 3 {
		t.Fatalf("expected=%d, want 3", r.expected)
	}
}

// TestCorruptionNeverDelivered: a packet whose bits flipped in flight
// fails the CRC and is dropped before the NIPT/memory path — the
// receiver's RAM stays untouched and no ACK acknowledges it.
func TestCorruptionNeverDelivered(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{}))
	rx := p.nics[1]
	payload := patternBytesT(5, 64)
	pkt := mkData(0, 1, 0, 1, addr.PAddr(5*addr.PageSize), payload)
	pkt.Payload[17] ^= 0x40 // in-flight bit flip; CRC now stale
	rx.recvData(pkt)
	p.net.Flush()
	p.clocks[1].RunUntilIdle()
	s := rx.Stats()
	if s.CorruptDropped != 1 || s.CorruptBytes != 64 {
		t.Fatalf("corruption stats %+v", s)
	}
	if s.PacketsReceived != 0 || s.AcksSent != 0 {
		t.Fatalf("corrupt packet reached the delivery path: %+v", s)
	}
	got, _ := p.rams[1].Read(addr.PAddr(5*addr.PageSize), 64)
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("corrupt payload written to memory")
	}
	if r := rx.rel.peers[0].r; r != nil && r.expected != 1 {
		t.Fatal("corrupt packet advanced the sequence window")
	}
}

// TestCreditExhaustionBlocksThenDrains: with the window full and the
// pending queue at its bound, CheckTransfer bounces queue-full (the
// transient the UDMA library retries); once the receiver ACKs, the
// queue drains in FIFO order.
func TestCreditExhaustionBlocksThenDrains(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{Window: 2, MaxPending: 4}))
	p.nics[0].SetNIPT(0, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 5})
	da := device.DevAddr{Page: 0, Off: 0}
	pays := make([][]byte, 4)
	for i := range pays {
		pays[i] = patternBytesT(uint64(10+i), 64)
		if err := p.nics[0].Write(da, pays[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	// Window 2 transmitted, 2 pending: the buffer is at MaxPending.
	if got := len(p.nics[0].rel.peers[1].s.pending); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	if bits := p.nics[0].CheckTransfer(da, 64, true); bits&device.ErrQueueFull == 0 {
		t.Fatalf("CheckTransfer = %#x, want queue-full backpressure", uint32(bits))
	}
	if p.nics[0].Stats().CreditStalls != 1 {
		t.Fatal("credit stall not counted")
	}
	drainPair(p)
	s0, s1 := p.nics[0].Stats(), p.nics[1].Stats()
	if s1.PacketsReceived != 4 || s1.BytesReceived != 256 {
		t.Fatalf("drain incomplete: %+v", s1)
	}
	if s0.Retransmits != 0 {
		t.Fatalf("clean wire should not retransmit: %+v", s0)
	}
	// All four writes hit the same page; in-order (FIFO) delivery means
	// the last write's bytes are what remains.
	got, _ := p.rams[1].Read(addr.PAddr(5*addr.PageSize), 64)
	if !bytes.Equal(got, pays[3]) {
		t.Fatal("final page content is not the last-sent payload (FIFO order violated)")
	}
	if bits := p.nics[0].CheckTransfer(da, 64, true); bits != 0 {
		t.Fatalf("backpressure did not clear: %#x", uint32(bits))
	}
}

// TestLinkFlapRecovery: a fault plan with down/up windows drops packets
// mid-stream; the retransmit machinery resumes after the link comes
// back with zero byte loss.
func TestLinkFlapRecovery(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{RetxTimeout: 2048}))
	plan := interconnect.FaultPlan{Seed: 3, FlapPeriod: 8000, FlapDown: 4000}
	p.net.SetFaultPlan(plan)
	p.nics[0].SetNIPT(0, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 5})
	var want []byte
	for i := 0; i < 8; i++ {
		pay := patternBytesT(uint64(20+i), 512)
		if i == 7 {
			want = pay
		}
		if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, pay, 0); err != nil {
			t.Fatal(err)
		}
		p.net.Flush()
		p.clocks[0].Advance(1500) // spread launches across flap phases
	}
	drainPair(p)
	fs := p.net.FaultStats()
	if fs.FlapDrops == 0 {
		t.Fatalf("no launch hit a down window (fstats %+v); pick a different seed", fs)
	}
	s0, s1 := p.nics[0].Stats(), p.nics[1].Stats()
	if s0.Retransmits == 0 {
		t.Fatal("flap drops must force retransmission")
	}
	if s0.DeliveryFailures != 0 {
		t.Fatalf("link should recover within the retry budget: %+v", s0)
	}
	if s1.BytesReceived+s1.DupBytes != s0.BytesSent+s0.RetransBytes+fs.DupDataBytes-fs.DroppedDataBytes {
		t.Fatalf("byte loss across flap: sent %d+%d, dropped %d, received %d+%d dup",
			s0.BytesSent, s0.RetransBytes, fs.DroppedDataBytes, s1.BytesReceived, s1.DupBytes)
	}
	got, _ := p.rams[1].Read(addr.PAddr(5*addr.PageSize), 512)
	if !bytes.Equal(got, want) {
		t.Fatal("final page is not the last payload after flap recovery")
	}
}

// TestRetryCapSurfacesTypedError: a dead link (100% drop) exhausts the
// retry budget; the next Write returns *DeliveryError (which the DMA
// engine surfaces as a failed transfer), and the link recovers on the
// following epoch once the wire heals.
func TestRetryCapSurfacesTypedError(t *testing.T) {
	p := newPair(t, relConfig(ReliabilityConfig{RetxTimeout: 512, MaxRetries: 2}))
	p.net.SetFaultPlan(interconnect.FaultPlan{Seed: 1, DropRate: 1.0})
	p.nics[0].SetNIPT(0, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 5})
	pay := patternBytesT(30, 64)
	if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, pay, 0); err != nil {
		t.Fatal(err)
	}
	drainPair(p) // timeouts, retransmits, then the retry cap
	s0 := p.nics[0].Stats()
	if s0.DeliveryFailures != 1 || s0.FailedPackets != 1 {
		t.Fatalf("link not declared broken: %+v", s0)
	}
	err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, pay, 0)
	var de *DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("next Write returned %v, want *DeliveryError", err)
	}
	if de.Dest != 1 || de.Lost != 1 {
		t.Fatalf("DeliveryError = %+v", de)
	}
	// The wire heals; the next epoch delivers.
	p.net.SetFaultPlan(interconnect.FaultPlan{})
	if err := p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, pay, 0); err != nil {
		t.Fatalf("post-recovery Write: %v", err)
	}
	drainPair(p)
	if p.nics[1].Stats().PacketsReceived != 1 {
		t.Fatal("new epoch did not deliver")
	}
	got, _ := p.rams[1].Read(addr.PAddr(5*addr.PageSize), 64)
	if !bytes.Equal(got, pay) {
		t.Fatal("post-recovery payload wrong")
	}
}

// patternBytesT is a tiny deterministic payload generator for these
// tests (distinct tag → distinct bytes).
func patternBytesT(tag uint64, n int) []byte {
	out := make([]byte, n)
	x := tag
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = byte(x >> 56)
	}
	return out
}

// TestReliableSendAckAllocs: once a link is established, a reliable
// send and its ACK allocate only what each message owns: the payload
// copy kept for retransmission, its relPkt record, the data and ACK
// packets, the backplane's two delivery events and the receive DMA's
// completion. The link's queues keep their backing arrays and its
// retransmit timer reuses one callback.
func TestReliableSendAckAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p := newPair(t, relConfig(ReliabilityConfig{}))
	p.nics[0].SetNIPT(3, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7})
	payload := patternBytesT(1, 256)
	send := func() {
		if err := p.nics[0].Write(device.DevAddr{Page: 3}, payload, p.clocks[0].Now()); err != nil {
			t.Fatal(err)
		}
		drainPair(p)
	}
	for i := 0; i < 20; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs > 7 {
		t.Fatalf("a steady-state reliable send and ACK allocate %.1f objects, want at most 7", allocs)
	}
	if s := p.nics[0].Stats(); s.AcksReceived != s.PacketsSent || s.Retransmits != 0 {
		t.Fatalf("sends were not each acknowledged once: %+v", s)
	}
}
