package nic

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"shrimp/internal/addr"
	"shrimp/internal/interconnect"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// This file is the NIC's reliable-delivery sublayer: the machinery the
// paper did not need because the Paragon backplane "delivers packets
// reliably and in order". When the backplane carries a FaultPlan that
// assumption breaks, so the board grows what real RDMA-class NICs carry
// per connection: sequence numbers, a CRC over header+payload, a
// cumulative-ACK + go-back-N retransmit scheme with exponential backoff
// on the simulated clock, a small resequencing buffer for late
// deliveries, and a credit window so a slow receiver backpressures the
// UDMA queue instead of being buried.
//
// Protocol state machine (per directed (sender,dest) pair):
//
//	sender:  pending ──pump(window)──▶ unacked ──cumulative ACK──▶ done
//	            ▲                        │ timeout: go-back-N resend,
//	            │                        │ backoff ×2, retries++
//	            └── retries > MaxRetries: epoch++, flush, latch
//	                DeliveryError (consumed by the next Write)
//
//	receiver: CRC bad → drop (never reaches memory)
//	          seq < expected → dup-drop, re-ACK
//	          seq = expected → deliver, drain reseq buffer, ACK
//	          seq > expected → hold in reseq buffer (bounded), dup-ACK
//
// Every ACK carries Epoch (connection incarnation), the cumulative Ack
// and the receiver's remaining buffer credits (Window).

// ReliabilityConfig enables and sizes the sublayer. The zero value
// (Enabled=false) is the paper's reliable-wire mode: packets go out
// raw, exactly as before.
type ReliabilityConfig struct {
	Enabled bool
	// Window is the go-back-N send window in packets (default 8); it
	// is also the receiver's resequencing capacity.
	Window int
	// MaxPending bounds the retransmit+pending buffer per destination;
	// CheckTransfer answers queue-full beyond it (default 2×Window).
	MaxPending int
	// RetxTimeout is the base retransmit timeout in cycles; it doubles
	// per consecutive timeout (default 4096).
	RetxTimeout sim.Cycles
	// MaxRetries caps consecutive timeouts without ACK progress before
	// the link is declared broken (default 8).
	MaxRetries int
	// IdleReclaimAge ages out idle per-destination protocol state: a
	// sender or receiver quiescent for this many cycles is returned to
	// the board's free pool at the next barrier (ReclaimIdle in
	// reclaim.go), keeping only a compact epoch memory in host memory.
	// 0 disables reclamation (the seed behavior: state for every peer
	// lives on the NIC forever).
	IdleReclaimAge sim.Cycles
}

func (c ReliabilityConfig) withDefaults() ReliabilityConfig {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 2 * c.Window
	}
	if c.RetxTimeout <= 0 {
		c.RetxTimeout = 4096
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	return c
}

// DeliveryError reports that the reliability layer exhausted its retry
// budget to a destination and gave up. It is latched per destination
// and returned by the *next* Write through that link (the failed
// transfer's DMA had already completed into the board), which surfaces
// it as dma.TransferError{FaultDevice} → ErrTransferFault status →
// udmalib.HardError, so udmalib.SendRetry composes: its re-send starts
// the link's next epoch.
type DeliveryError struct {
	Dest  int
	Epoch uint32 // the incarnation that failed
	Lost  int    // packets abandoned (unacked + queued)
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("nic: delivery to node %d failed after retry cap (epoch %d, %d packets abandoned)",
		e.Dest, e.Epoch, e.Lost)
}

// relPkt is one queued data packet and its retransmit bookkeeping.
type relPkt struct {
	seq       uint64
	destAddr  addr.PAddr
	payload   []byte
	firstSent sim.Cycles
	sent      bool // transmitted at least once
	retx      bool // retransmitted (Karn: excluded from RTT sampling)
}

// relSender is the per-destination send half.
type relSender struct {
	dest      int
	epoch     uint32
	nextSeq   uint64 // next sequence number to assign (first packet is 1)
	ackedTo   uint64 // cumulative: all seq <= ackedTo delivered
	advWindow int    // receiver's advertised credits
	pending   []*relPkt
	unacked   []*relPkt
	timer     sim.Handle
	retxFn    func() // the timer's callback, built once per sender
	retries   int
	broken    error // latched DeliveryError, consumed by the next Write
	// lastActive is the last cycle this link moved (send, retransmit or
	// ACK progress); ReclaimIdle ages quiescent links out against it.
	lastActive sim.Cycles
}

// relReceiver is the per-source receive half.
type relReceiver struct {
	src        int
	epoch      uint32
	expected   uint64 // next in-order sequence wanted
	reseq      map[uint64]*interconnect.Packet
	lastActive sim.Cycles // last data arrival (see relSender.lastActive)
}

// rxMemory is the compact host-memory record kept for a reclaimed
// receiver: enough to restore dedupe/ordering state exactly if the
// source ever speaks again (see reclaim.go).
type rxMemory struct {
	epoch    uint32
	expected uint64
}

// reliability bundles both halves for one board.
type reliability struct {
	cfg       ReliabilityConfig
	senders   map[int]*relSender
	receivers map[int]*relReceiver

	// Reclamation state (reclaim.go): epoch memories for reclaimed
	// destinations, and free pools so churning flows reuse structs
	// instead of growing the heap with the total flow count.
	senderMem  map[int]uint32
	recvMem    map[int]rxMemory
	senderPool []*relSender
	recvPool   []*relReceiver
	due        []int // ReclaimIdle's scratch list of reclaimable keys
	// nextDue is at or below the earliest cycle at which any live link
	// can become old enough to reclaim (see ReclaimIdle).
	nextDue sim.Cycles

	crcHdr [crcHeaderLen]byte // packetCRC's header scratch
}

func newReliability(cfg ReliabilityConfig) *reliability {
	return &reliability{
		cfg:       cfg.withDefaults(),
		senders:   make(map[int]*relSender),
		receivers: make(map[int]*relReceiver),
		senderMem: make(map[int]uint32),
		recvMem:   make(map[int]rxMemory),
	}
}

func (n *Interface) sender(dest int) *relSender {
	if s, ok := n.rel.senders[dest]; ok {
		return s
	}
	var s *relSender
	if k := len(n.rel.senderPool); k > 0 {
		s = n.rel.senderPool[k-1]
		n.rel.senderPool = n.rel.senderPool[:k-1]
		*s = relSender{pending: s.pending[:0], unacked: s.unacked[:0], retxFn: s.retxFn}
	} else {
		s = &relSender{}
		s.retxFn = func() {
			s.timer = sim.NoEvent
			n.onRetxTimeout(s)
		}
	}
	s.dest = dest
	s.nextSeq = 1
	s.advWindow = n.rel.cfg.Window
	s.lastActive = n.clock.Now()
	n.noteLinkCreated()
	if mem, ok := n.rel.senderMem[dest]; ok {
		// Resurrection: the reclaimed incarnation's epoch was kept in
		// host memory; the new one starts one past it, so the receiver
		// resynchronizes through its ordinary higher-epoch path exactly
		// as after breakLink.
		s.epoch = mem + 1
		delete(n.rel.senderMem, dest)
		n.stats.Resurrections++
	}
	n.rel.senders[dest] = s
	return s
}

func (n *Interface) receiver(src int) *relReceiver {
	if r, ok := n.rel.receivers[src]; ok {
		return r
	}
	var r *relReceiver
	if k := len(n.rel.recvPool); k > 0 {
		r = n.rel.recvPool[k-1]
		n.rel.recvPool = n.rel.recvPool[:k-1]
	} else {
		r = &relReceiver{reseq: make(map[uint64]*interconnect.Packet)}
	}
	r.src = src
	r.epoch = 0
	r.expected = 1
	r.lastActive = n.clock.Now()
	n.noteLinkCreated()
	if mem, ok := n.rel.recvMem[src]; ok {
		// Restore the dedupe horizon, so a stale duplicate of a packet
		// delivered before the reclaim can never be delivered twice.
		r.epoch = mem.epoch
		r.expected = mem.expected
		delete(n.rel.recvMem, src)
		n.stats.Resurrections++
	}
	n.rel.receivers[src] = r
	return r
}

// crcHeaderLen is the length of the header packetCRC covers.
const crcHeaderLen = 45

// packetCRC computes the IEEE CRC32 over the protocol header fields and
// payload (the CRC field itself excluded). Flipping any covered bit —
// payload bytes, or the Ack field of an empty ACK — breaks it. It
// allocates nothing: no hash.Hash32, and the header is laid out in the
// caller's scratch, which crc32.Update may keep on the heap.
func packetCRC(hdr *[crcHeaderLen]byte, p *interconnect.Packet) uint32 {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(p.Src))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(p.Dst))
	hdr[8] = byte(p.Kind)
	binary.LittleEndian.PutUint32(hdr[9:], p.Epoch)
	binary.LittleEndian.PutUint64(hdr[13:], p.Seq)
	binary.LittleEndian.PutUint64(hdr[21:], p.Ack)
	binary.LittleEndian.PutUint32(hdr[29:], p.Window)
	binary.LittleEndian.PutUint64(hdr[33:], uint64(p.DestAddr))
	binary.LittleEndian.PutUint32(hdr[41:], uint32(len(p.Payload)))
	return crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, p.Payload)
}

// --- send half ---------------------------------------------------------------

// relSend enqueues a data packet for reliable delivery. It returns the
// latched DeliveryError (consuming it) if the link's previous epoch
// just failed.
func (n *Interface) relSend(dest int, destAddr addr.PAddr, payload []byte) error {
	s := n.sender(dest)
	s.lastActive = n.clock.Now()
	if err := s.broken; err != nil {
		s.broken = nil // consumed; this epoch starts fresh on the next send
		return err
	}
	p := &relPkt{seq: s.nextSeq, destAddr: destAddr, payload: payload}
	s.nextSeq++
	s.pending = append(s.pending, p)
	n.pump(s)
	return nil
}

// effWindow is how many packets may be unacked right now: the smaller
// of our window and the receiver's advertised credits, floored at 1 so
// a zero advertisement can never wedge the link (the probe packet
// doubles as a window update solicit).
func (n *Interface) effWindow(s *relSender) int {
	w := n.rel.cfg.Window
	if s.advWindow < w {
		w = s.advWindow
	}
	if w < 1 {
		w = 1
	}
	return w
}

// pump transmits queued packets while the window has room, then arms
// the retransmit timer.
func (n *Interface) pump(s *relSender) {
	for len(s.pending) > 0 && len(s.unacked) < n.effWindow(s) {
		p := s.pending[0]
		dropFront(&s.pending, 1)
		s.unacked = append(s.unacked, p)
		n.transmitData(s, p, false)
	}
	n.armTimer(s)
}

func (n *Interface) transmitData(s *relSender, p *relPkt, retrans bool) {
	pkt := &interconnect.Packet{
		Src:      n.nodeID,
		Dst:      s.dest,
		DestAddr: p.destAddr,
		Payload:  p.payload,
		Kind:     interconnect.PktData,
		Epoch:    s.epoch,
		Seq:      p.seq,
		Retrans:  retrans,
	}
	s.lastActive = n.clock.Now()
	pkt.CRC = packetCRC(&n.rel.crcHdr, pkt)
	if !p.sent {
		p.sent = true
		p.firstSent = n.clock.Now()
		n.stats.PacketsSent++
		n.stats.BytesSent += uint64(len(p.payload))
		n.m.pktBytes.Observe(uint64(len(p.payload)))
		n.tracer.Record(trace.EvPacketSend, uint64(s.dest), uint64(len(p.payload)), "")
	} else {
		p.retx = true
		n.stats.Retransmits++
		n.stats.RetransBytes += uint64(len(p.payload))
		n.tracer.Record(trace.EvRetransmit, uint64(s.dest), p.seq, "")
	}
	n.net.Send(pkt)
}

// armTimer (re)schedules the go-back-N retransmit timer with the
// current backoff, or cancels it when nothing is outstanding.
func (n *Interface) armTimer(s *relSender) {
	if len(s.unacked) == 0 {
		n.clock.Cancel(s.timer)
		s.timer = sim.NoEvent
		return
	}
	if s.timer != sim.NoEvent {
		return
	}
	shift := s.retries
	if shift > 10 {
		shift = 10
	}
	d := n.rel.cfg.RetxTimeout << uint(shift)
	s.timer = n.clock.ScheduleAfter(d, s.retxFn)
}

func (n *Interface) onRetxTimeout(s *relSender) {
	if len(s.unacked) == 0 {
		return
	}
	s.retries++
	if s.retries > n.rel.cfg.MaxRetries {
		n.breakLink(s)
		return
	}
	// Go-back-N: resend the whole unacked window in order.
	for _, p := range s.unacked {
		n.transmitData(s, p, true)
	}
	n.armTimer(s)
}

// breakLink gives up on the destination: abandon everything queued,
// bump the epoch so the receiver resynchronizes, and latch a typed
// error for the next Write through this link.
func (n *Interface) breakLink(s *relSender) {
	lost := len(s.unacked) + len(s.pending)
	for _, p := range s.unacked {
		n.stats.FailedPackets++
		n.stats.FailedBytes += uint64(len(p.payload))
	}
	for _, p := range s.pending {
		n.stats.FailedPackets++
		n.stats.FailedBytes += uint64(len(p.payload))
	}
	s.broken = &DeliveryError{Dest: s.dest, Epoch: s.epoch, Lost: lost}
	n.stats.DeliveryFailures++
	n.tracer.Record(trace.EvDeliveryFail, uint64(s.dest), uint64(lost), "retry cap")
	n.clock.Cancel(s.timer)
	s.timer = sim.NoEvent
	s.epoch++
	s.nextSeq = 1
	s.ackedTo = 0
	s.advWindow = n.rel.cfg.Window
	clear(s.unacked)
	clear(s.pending)
	s.unacked = s.unacked[:0]
	s.pending = s.pending[:0]
	s.retries = 0
}

// dropFront removes the first k packets of a link queue, moving the
// rest down so the queue keeps its backing array.
func dropFront(q *[]*relPkt, k int) {
	m := copy(*q, (*q)[k:])
	clear((*q)[m:])
	*q = (*q)[:m]
}

// handleAck processes a cumulative ACK arriving back at the sender.
func (n *Interface) handleAck(pkt *interconnect.Packet) {
	if packetCRC(&n.rel.crcHdr, pkt) != pkt.CRC {
		n.stats.CorruptDropped++
		n.tracer.Record(trace.EvCrcDrop, uint64(pkt.Src), pkt.Ack, "ack")
		return
	}
	n.stats.AcksReceived++
	s := n.sender(pkt.Src)
	s.lastActive = n.clock.Now()
	if pkt.Epoch != s.epoch {
		return // stale incarnation
	}
	if pkt.Ack > s.ackedTo {
		now := n.clock.Now()
		acked := 0
		for _, p := range s.unacked {
			if p.seq > pkt.Ack {
				break
			}
			acked++
			if !p.retx {
				n.m.ackRTT.Observe(uint64(now - p.firstSent))
			}
		}
		dropFront(&s.unacked, acked)
		s.ackedTo = pkt.Ack
		s.retries = 0
		n.clock.Cancel(s.timer) // restart the timer for what remains
		s.timer = sim.NoEvent
	} else {
		n.stats.DupAcks++
	}
	s.advWindow = int(pkt.Window)
	n.pump(s)
}

// --- receive half ------------------------------------------------------------

// recvData runs the receiver half of the protocol for an arriving data
// packet. Only in-order, CRC-clean packets ever reach the memory path.
func (n *Interface) recvData(pkt *interconnect.Packet) {
	if packetCRC(&n.rel.crcHdr, pkt) != pkt.CRC {
		n.stats.CorruptDropped++
		n.stats.CorruptBytes += uint64(len(pkt.Payload))
		n.tracer.Record(trace.EvCrcDrop, uint64(pkt.Src), pkt.Seq, "data")
		return
	}
	r := n.receiver(pkt.Src)
	r.lastActive = n.clock.Now()
	if pkt.Epoch > r.epoch {
		// The sender gave up and restarted; anything parked from the
		// old incarnation can never complete a window.
		for _, q := range r.reseq {
			n.stats.ReseqDropped++
			n.stats.ReseqBytes += uint64(len(q.Payload))
		}
		clear(r.reseq)
		r.epoch = pkt.Epoch
		r.expected = 1
	} else if pkt.Epoch < r.epoch {
		n.stats.DupDropped++
		n.stats.DupBytes += uint64(len(pkt.Payload))
		return
	}
	switch {
	case pkt.Seq < r.expected:
		// Duplicate (fabric copy, or a retransmit whose original made
		// it). Re-ACK so a sender that missed the ACK can move on.
		n.stats.DupDropped++
		n.stats.DupBytes += uint64(len(pkt.Payload))
		n.tracer.Record(trace.EvDupDrop, uint64(pkt.Src), pkt.Seq, "")
		n.sendAck(r)
	case pkt.Seq == r.expected:
		n.deliverData(pkt)
		r.expected++
		for {
			q, ok := r.reseq[r.expected]
			if !ok {
				break
			}
			delete(r.reseq, r.expected)
			n.deliverData(q)
			r.expected++
		}
		n.sendAck(r)
	default: // gap: an earlier packet is missing
		if _, dup := r.reseq[pkt.Seq]; dup {
			n.stats.DupDropped++
			n.stats.DupBytes += uint64(len(pkt.Payload))
		} else if len(r.reseq) >= n.rel.cfg.Window ||
			pkt.Seq > r.expected+uint64(n.rel.cfg.Window) {
			// No room (or hopelessly far ahead): the retransmit will
			// carry it again.
			n.stats.ReseqDropped++
			n.stats.ReseqBytes += uint64(len(pkt.Payload))
		} else {
			r.reseq[pkt.Seq] = pkt
		}
		n.sendAck(r) // dup-ACK: tells the sender where the hole is
	}
}

// sendAck emits the receiver's cumulative ACK with remaining credits.
func (n *Interface) sendAck(r *relReceiver) {
	credits := n.rel.cfg.Window - len(r.reseq)
	if credits < 0 {
		credits = 0
	}
	ack := &interconnect.Packet{
		Src:    n.nodeID,
		Dst:    r.src,
		Kind:   interconnect.PktAck,
		Epoch:  r.epoch,
		Ack:    r.expected - 1,
		Window: uint32(credits),
	}
	ack.CRC = packetCRC(&n.rel.crcHdr, ack)
	n.stats.AcksSent++
	n.net.Send(ack)
}

// ReseqHeldBytes returns payload bytes currently parked in reseq
// buffers (for end-of-run byte accounting; zero once streams are
// in-order complete).
func (n *Interface) ReseqHeldBytes() uint64 {
	if n.rel == nil {
		return 0
	}
	var total uint64
	for _, r := range n.rel.receivers {
		for _, q := range r.reseq {
			total += uint64(len(q.Payload))
		}
	}
	return total
}

// PendingUnsent returns data packets queued to a destination but not
// yet transmitted (tests and diagnostics).
func (n *Interface) PendingUnsent(dest int) int {
	if n.rel == nil {
		return 0
	}
	s, ok := n.rel.senders[dest]
	if !ok {
		return 0
	}
	return len(s.pending)
}
