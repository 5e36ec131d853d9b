// Package nic implements the SHRIMP network interface of the paper's
// Section 8 and Figure 6: a UDMA device whose device-proxy pages index
// the Network Interface Page Table (NIPT), a packetizer that turns a
// completed memory→NIC DMA into a network packet ("deliberate update"),
// receive-side DMA logic that writes arriving packets straight into
// physical memory, and — for the Section 9 comparison — a memory-mapped
// FIFO programmed-I/O mode.
package nic

import (
	"fmt"
	"sync"

	"shrimp/internal/addr"
	"shrimp/internal/bus"
	"shrimp/internal/device"
	"shrimp/internal/interconnect"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
	"shrimp/internal/telemetry"
	"shrimp/internal/trace"
)

// NIPTEntry names a remote physical page: "each entry of which
// specifies a remote node and a physical memory page on that node."
type NIPTEntry struct {
	Valid    bool
	DestNode int
	DestPFN  uint32
}

// Stats counts NIC activity.
type Stats struct {
	PacketsSent     uint64
	BytesSent       uint64
	PacketsReceived uint64
	BytesReceived   uint64
	PIOWords        uint64
	RecvDrops       uint64 // packets addressed outside installed RAM
	RecvDropBytes   uint64 // payload bytes of those drops
	// LastRecvAt is the receiver-clock completion time of the most
	// recent receive DMA (latency measurements).
	LastRecvAt sim.Cycles
	// Automatic-update counters (see autoupdate.go).
	AutoWords   uint64 // snooped 32-bit stores
	AutoPackets uint64 // combined packets launched
	AutoDrops   uint64 // words/bursts dropped for invalid entries

	// Reliability-layer counters (see reliable.go). PacketsSent/BytesSent
	// count first transmissions only; retransmissions are broken out so
	// goodput vs. wire throughput stays measurable.
	Retransmits      uint64
	RetransBytes     uint64
	AcksSent         uint64
	AcksReceived     uint64
	DupAcks          uint64
	DupDropped       uint64 // duplicate data packets discarded by the receiver
	DupBytes         uint64
	CorruptDropped   uint64 // packets failing the CRC check (never delivered)
	CorruptBytes     uint64
	ReseqDropped     uint64 // out-of-order packets the reseq buffer couldn't hold
	ReseqBytes       uint64
	CreditStalls     uint64 // transfers bounced queue-full by flow control
	DeliveryFailures uint64 // links declared broken after the retry cap
	FailedPackets    uint64 // packets abandoned by broken links
	FailedBytes      uint64

	// NIPT cache counters (see niptcache.go). Hits+Misses == Lookups
	// always; with capacity 0 every lookup is a hit (the whole table is
	// on the board, the seed behavior).
	NIPTLookups      uint64
	NIPTHits         uint64
	NIPTMisses       uint64
	NIPTEvictions    uint64
	NIPTRefillCycles uint64 // total simulated cycles spent on miss refills

	// Reliability-state reclamation counters (see reclaim.go).
	SenderReclaims   uint64 // idle per-destination send state returned to the pool
	ReceiverReclaims uint64 // idle per-source receive state returned to the pool
	Resurrections    uint64 // reclaimed destinations re-established by new traffic

	// Crash-restart counters (see crash.go). The abandoned ledger holds
	// queued/unacked packets wiped by a crash that were never launched
	// onto the wire in their final form (observability only); the
	// dropped ledger holds wire-carried payload bytes the crash made
	// undeliverable (reseq buffers wiped, arrivals while down, receive
	// DMAs invalidated mid-flight) and balances the simcheck
	// wire-conservation audit across the crash boundary.
	Crashes             uint64
	CrashAbandonedPkts  uint64 // pending+unacked packets wiped at crash
	CrashAbandonedBytes uint64
	CrashDropped        uint64 // wire-carried packets the crash swallowed
	CrashDropBytes      uint64
}

// Interface is one node's SHRIMP network interface board.
//
// Send path (deliberate update): a UDMA transfer moves data from memory
// to the NIC; the device-proxy page of the *destination* indexes the
// NIPT, whose entry plus the page offset forms the remote physical
// address; the board assembles a packet and launches it.
//
// Receive path: arriving packets are written into physical memory by
// the board's EISA DMA logic with no CPU involvement.
type Interface struct {
	nodeID int
	clock  *sim.Clock
	costs  *sim.CostModel
	ram    *mem.Physical
	iobus  *bus.Bus
	net    *interconnect.Backplane

	nipt  []NIPTEntry // host-memory backing table (always authoritative)
	cache *niptCache  // nil = unbounded on-NIC table (seed behavior)

	pioPages uint32 // PIO window pages appended after the NIPT pages
	pio      pioState
	auto     autoUpdateState

	rel *reliability // nil = raw wire (the paper's reliable-backplane mode)

	// Crash-restart state (crash.go). down marks the board powered off
	// between Crash and Reboot; gen bumps at every crash so events the
	// pre-crash board scheduled (receive-DMA completions, deferred NIPT
	// refill launches) recognise themselves as stale and bail.
	down bool
	gen  uint64

	tracer *trace.Tracer // nil = tracing off

	stats Stats
	m     nicMetrics
}

// nicMetrics holds the board's gauges and histograms, resolved once at
// attach time. All nil (free no-ops) until SetMetrics is called.
type nicMetrics struct {
	pktBytes *telemetry.Histogram
	ackRTT   *telemetry.Histogram

	// Reliability-state pool levels (see reclaim.go).
	relSenders   *telemetry.Gauge
	relReceivers *telemetry.Gauge
	relPoolFree  *telemetry.Gauge
}

// pioState is the memory-mapped FIFO mode's register file.
type pioState struct {
	destWord uint32 // device-proxy page index << 12 | offset
	buf      []byte
}

// PIO register offsets within the PIO window's first page.
const (
	PIORegDest   = 0  // store: set destination (NIPT index<<12 | page offset)
	PIORegData   = 4  // store: push one 32-bit data word
	PIORegLaunch = 8  // store: launch the accumulated packet
	PIORegStatus = 12 // load: FIFO status (always ready in this model)
)

// Config sizes the board.
type Config struct {
	// NIPTPages is the NIPT size; the SHRIMP board indexes it with 15
	// bits, giving 32 K destination pages (the default).
	NIPTPages uint32
	// PIOWindow enables the memory-mapped FIFO mode with one register
	// page after the NIPT pages.
	PIOWindow bool
	// NIPTCapacity bounds the on-NIC resident NIPT entries; the full
	// table lives in a host-memory backing store and data-path lookups
	// that miss pay a refill cost (niptcache.go). 0 = unbounded: the
	// whole table fits on the board, the original SHRIMP assumption.
	NIPTCapacity int
	// NIPTRefillJitter adds a seeded 0..J-1 cycle draw to each refill,
	// modeling host-memory contention. 0 = fixed cost.
	NIPTRefillJitter sim.Cycles
	// NIPTSeed seeds the refill-jitter stream (mixed with the node ID
	// so boards draw independently).
	NIPTSeed uint64
	// Reliability enables the reliable-delivery sublayer (reliable.go);
	// required when the backplane carries a fault plan.
	Reliability ReliabilityConfig
}

// New builds a network interface for a node.
func New(nodeID int, clock *sim.Clock, costs *sim.CostModel, ram *mem.Physical,
	iobus *bus.Bus, net *interconnect.Backplane, cfg Config) *Interface {
	if clock == nil || costs == nil || ram == nil || iobus == nil || net == nil {
		panic("nic: New requires non-nil dependencies")
	}
	pages := cfg.NIPTPages
	if pages == 0 {
		pages = 32768 // 15-bit NIPT index
	}
	nic := &Interface{
		nodeID: nodeID,
		clock:  clock,
		costs:  costs,
		ram:    ram,
		iobus:  iobus,
		net:    net,
		nipt:   make([]NIPTEntry, pages),
	}
	if cfg.PIOWindow {
		nic.pioPages = 1
	}
	if cfg.NIPTCapacity > 0 {
		nic.cache = &niptCache{
			cap:      cfg.NIPTCapacity,
			used:     make([]uint64, pages),
			resident: make([]uint32, 0, cfg.NIPTCapacity),
			jitter:   cfg.NIPTRefillJitter,
			rng:      sim.NewRNG(cfg.NIPTSeed ^ uint64(nodeID+1)*0x9E3779B97F4A7C15),
		}
	}
	if cfg.Reliability.Enabled {
		nic.rel = newReliability(cfg.Reliability)
	}
	net.Attach(nic)
	return nic
}

// --- NIPT management (privileged: called by kernel-level mapping code) ---

// SetTracer attaches an event tracer (nil disables tracing).
func (n *Interface) SetTracer(t *trace.Tracer) { n.tracer = t }

// SetMetrics registers the board's counters over its Stats and
// attaches its gauges and histograms (nil scope disables them).
// Recording is a pure observation: it never advances the clock.
func (n *Interface) SetMetrics(s *telemetry.Scope) {
	st := &n.stats
	s.CounterFunc("nic_packets_sent", func() uint64 { return st.PacketsSent })
	s.CounterFunc("nic_bytes_sent", func() uint64 { return st.BytesSent })
	s.CounterFunc("nic_packets_recv", func() uint64 { return st.PacketsReceived })
	s.CounterFunc("nic_bytes_recv", func() uint64 { return st.BytesReceived })
	s.CounterFunc("nic_nipt_lookups", func() uint64 { return st.NIPTLookups })
	s.CounterFunc("nic_recv_drops", func() uint64 { return st.RecvDrops })

	s.CounterFunc("nipt_hits", func() uint64 { return st.NIPTHits })
	s.CounterFunc("nipt_misses", func() uint64 { return st.NIPTMisses })
	s.CounterFunc("nipt_evictions", func() uint64 { return st.NIPTEvictions })
	s.CounterFunc("nipt_refill_cycles", func() uint64 { return st.NIPTRefillCycles })
	s.CounterFunc("nic_rel_reclaims", func() uint64 { return st.SenderReclaims + st.ReceiverReclaims })

	s.CounterFunc("nic_retransmits", func() uint64 { return st.Retransmits })
	s.CounterFunc("nic_acks_sent", func() uint64 { return st.AcksSent })
	s.CounterFunc("nic_acks_recv", func() uint64 { return st.AcksReceived })
	s.CounterFunc("nic_dup_acks", func() uint64 { return st.DupAcks })
	s.CounterFunc("nic_crc_dropped", func() uint64 { return st.CorruptDropped })
	s.CounterFunc("nic_dup_dropped", func() uint64 { return st.DupDropped })
	s.CounterFunc("nic_credit_stalls", func() uint64 { return st.CreditStalls })
	s.CounterFunc("nic_delivery_failures", func() uint64 { return st.DeliveryFailures })

	n.m = nicMetrics{
		pktBytes:     s.Histogram("nic_packet_bytes"),
		ackRTT:       s.Histogram("nic_ack_rtt_cycles"),
		relSenders:   s.Gauge("nic_rel_senders_active"),
		relReceivers: s.Gauge("nic_rel_receivers_active"),
		relPoolFree:  s.Gauge("nic_rel_pool_free"),
	}
}

// SetNIPT installs an entry. Index range is checked; the kernel owns
// the policy of which process may install what. With a bounded cache,
// installing a valid entry write-allocates (installs are warm — the
// board just walked the host table to write it), and invalidating one
// drops its residency.
func (n *Interface) SetNIPT(index uint32, e NIPTEntry) error {
	if index >= uint32(len(n.nipt)) {
		return fmt.Errorf("nic: NIPT index %d out of range (%d entries)", index, len(n.nipt))
	}
	n.nipt[index] = e
	if n.cache != nil {
		if e.Valid {
			n.installLine(index)
		} else {
			n.invalidateLine(index)
		}
	}
	return nil
}

// NIPT returns the entry at index (tests and diagnostics).
func (n *Interface) NIPT(index uint32) (NIPTEntry, error) {
	if index >= uint32(len(n.nipt)) {
		return NIPTEntry{}, fmt.Errorf("nic: NIPT index %d out of range", index)
	}
	return n.nipt[index], nil
}

// NIPTSize returns the number of NIPT entries.
func (n *Interface) NIPTSize() uint32 { return uint32(len(n.nipt)) }

// Stats returns a copy of the counters.
func (n *Interface) Stats() Stats { return n.stats }

// --- device.Device (the UDMA send path) -------------------------------------

// Name implements device.Device.
func (n *Interface) Name() string { return fmt.Sprintf("shrimp-nic%d", n.nodeID) }

// Pages implements device.Device: one proxy page per NIPT entry, plus
// the PIO window.
func (n *Interface) Pages() uint32 { return uint32(len(n.nipt)) + n.pioPages }

// CheckTransfer implements device.Device. The SHRIMP board accepts
// only memory→device transfers ("SHRIMP uses UDMA only for
// memory-to-device transfers"), requires 4-byte alignment, and requires
// a valid NIPT entry.
func (n *Interface) CheckTransfer(da device.DevAddr, nbytes int, toDevice bool) device.ErrBits {
	var bits device.ErrBits
	if !toDevice {
		bits |= device.ErrReadOnly
	}
	if da.Page >= uint32(len(n.nipt)) {
		// PIO window or beyond: not a DMA target.
		return bits | device.ErrBounds
	}
	if da.Off%4 != 0 || nbytes%4 != 0 {
		bits |= device.ErrAlignment
	}
	if !n.nipt[da.Page].Valid {
		bits |= device.ErrInvalidEntry
	}
	if bits == 0 && n.rel != nil {
		// Credit-based flow control: a slow or flapping receiver shows
		// up here as a full retransmit buffer, and the transfer bounces
		// queue-full — a transient the UDMA library already retries —
		// instead of overrunning the link.
		s := n.sender(n.nipt[da.Page].DestNode)
		if s.broken == nil && len(s.pending)+len(s.unacked) >= n.rel.cfg.MaxPending {
			n.stats.CreditStalls++
			n.tracer.Record(trace.EvCreditStall, uint64(s.dest), uint64(len(s.unacked)), "")
			bits |= device.ErrQueueFull
		}
	}
	return bits
}

// TransferLatency implements device.Device: NIPT lookup + header
// assembly + FIFO/launch overhead per packet. With a bounded cache a
// miss adds the host-memory refill cost, and the entry is pinned for
// the duration of the transfer (released by the completion Write).
func (n *Interface) TransferLatency(da device.DevAddr, _ int) sim.Cycles {
	lat := n.costs.NIPTLookup + n.costs.PacketHeader + n.costs.PacketPerPage
	if da.Page < uint32(len(n.nipt)) && n.nipt[da.Page].Valid {
		lat += n.lookupNIPT(da.Page, true)
	}
	return lat
}

// Write implements device.Device: the DMA engine delivers the payload,
// the board forms the packet and launches it into the backplane.
func (n *Interface) Write(da device.DevAddr, data []byte, now sim.Cycles) error {
	n.releasePin(da.Page)
	e := n.nipt[da.Page]
	if !e.Valid {
		return fmt.Errorf("nic: write through invalid NIPT entry %d", da.Page)
	}
	return n.launch(e, da.Off, data)
}

// Read implements device.Device; the send-only SHRIMP board rejects it.
func (n *Interface) Read(device.DevAddr, int, sim.Cycles) ([]byte, error) {
	return nil, fmt.Errorf("nic: %s does not support device-to-memory UDMA", n.Name())
}

// wireBufs recycles the raw path's page-sized wire buffers. A raw
// launch copies the lent payload into one, and the receive DMA returns
// it once the bytes are in the destination's memory; a packet lost on
// the way leaves its buffer to the GC. One pool serves every board: a
// buffer taken on the sender's goroutine comes back on the receiver's,
// which sync.Pool allows (and orders for the race detector).
var wireBufs = sync.Pool{New: func() any { return new([addr.PageSize]byte) }}

// launch forms a packet from data and sends it. data is lent (a view
// of RAM, or a staging buffer the caller reuses), so launch copies it:
// this is the only host copy of a payload on its way to the wire.
func (n *Interface) launch(e NIPTEntry, off uint32, data []byte) error {
	if n.down {
		// A crashed board launches nothing; the packet dies on the dead
		// board before ever reaching the wire (no ledger entry needed —
		// first-transmission counting never saw it).
		return nil
	}
	// "The destination page number is concatenated with the offset to
	// form the destination physical address."
	destAddr := addr.PAddr(e.DestPFN<<addr.PageShift | off)
	if n.rel != nil {
		// The retransmit queue and every retransmitted wire copy share
		// this payload, so it is never recycled.
		payload := make([]byte, len(data))
		copy(payload, data)
		return n.relSend(e.DestNode, destAddr, payload)
	}
	pkt := &interconnect.Packet{
		Src:      n.nodeID,
		Dst:      e.DestNode,
		DestAddr: destAddr,
	}
	if len(data) <= addr.PageSize {
		buf := wireBufs.Get().(*[addr.PageSize]byte)
		pkt.Payload = buf[:copy(buf[:], data):len(data)]
		pkt.Buf = buf
	} else {
		pkt.Payload = append([]byte(nil), data...)
	}
	n.net.Send(pkt)
	n.stats.PacketsSent++
	n.stats.BytesSent += uint64(len(data))
	n.m.pktBytes.Observe(uint64(len(data)))
	n.tracer.Record(trace.EvPacketSend, uint64(e.DestNode), uint64(len(data)), "")
	return nil
}

// --- interconnect.Endpoint (the receive path) --------------------------------

// NodeID implements interconnect.Endpoint.
func (n *Interface) NodeID() int { return n.nodeID }

// NodeClock implements interconnect.Endpoint.
func (n *Interface) NodeClock() *sim.Clock { return n.clock }

// DeliverPacket implements interconnect.Endpoint. With the reliability
// sublayer on, arriving packets pass through the protocol first: ACKs
// feed the send half, data packets are CRC-checked, deduped and
// resequenced, and only in-order clean data reaches the memory path.
func (n *Interface) DeliverPacket(pkt *interconnect.Packet) {
	if n.down {
		// The board is powered off: anything already in flight toward it
		// when the crash hit lands on a dead connector. Wire-carried data
		// payloads go to the crash-drop ledger so byte conservation holds.
		if pkt.Kind == interconnect.PktData {
			n.stats.CrashDropped++
			n.stats.CrashDropBytes += uint64(len(pkt.Payload))
		}
		return
	}
	if n.rel != nil {
		if pkt.Kind == interconnect.PktAck {
			n.handleAck(pkt)
			return
		}
		n.recvData(pkt)
		return
	}
	n.deliverData(pkt)
}

// deliverData is the board's raw receive path: "At the receiving node,
// packet data is transferred directly to physical memory by the EISA
// DMA Logic." The receive DMA occupies the node's I/O bus like any
// burst, then the data lands.
func (n *Interface) deliverData(pkt *interconnect.Packet) {
	if !n.ram.Contains(pkt.DestAddr, len(pkt.Payload)) {
		// A corrupt NIPT entry on the sender named memory we don't
		// have; drop and count (a real board would raise an error
		// interrupt).
		n.stats.RecvDrops++
		n.stats.RecvDropBytes += uint64(len(pkt.Payload))
		return
	}
	arrive := n.clock.Now()
	_, end := n.iobus.ReserveBurst(arrive+n.costs.RecvDMAStartup, len(pkt.Payload))
	dest := pkt.DestAddr
	payload := pkt.Payload
	gen := n.gen
	n.clock.Schedule(end, func() {
		if n.gen != gen {
			// The board crashed between packet arrival and DMA
			// completion: the data never reached memory. It was
			// wire-carried, so it joins the crash-drop ledger.
			n.stats.CrashDropped++
			n.stats.CrashDropBytes += uint64(len(payload))
			return
		}
		if err := n.ram.Write(dest, payload); err != nil {
			n.stats.RecvDrops++
			n.stats.RecvDropBytes += uint64(len(payload))
			return
		}
		if pkt.Buf != nil {
			wireBufs.Put(pkt.Buf)
			pkt.Buf, pkt.Payload = nil, nil
		}
		n.stats.PacketsReceived++
		n.stats.BytesReceived += uint64(len(payload))
		n.stats.LastRecvAt = n.clock.Now()
		n.tracer.Span(trace.EvPacketRecv, arrive, uint64(pkt.Src), uint64(len(payload)), "")
	})
}

// --- device.PIODevice (the Section 9 FIFO baseline) ---------------------------

// PIOWindow implements device.PIODevice.
func (n *Interface) PIOWindow() (first, count uint32, ok bool) {
	if n.pioPages == 0 {
		return 0, 0, false
	}
	return uint32(len(n.nipt)), n.pioPages, true
}

// PIOStore implements device.PIODevice: the word-at-a-time FIFO
// protocol. The bus word cost is charged by the kernel's router.
func (n *Interface) PIOStore(da device.DevAddr, v uint32) {
	n.stats.PIOWords++
	switch da.Off {
	case PIORegDest:
		n.pio.destWord = v
		n.pio.buf = n.pio.buf[:0]
	case PIORegData:
		n.pio.buf = append(n.pio.buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	case PIORegLaunch:
		idx := n.pio.destWord >> addr.PageShift
		off := n.pio.destWord & addr.OffsetMask
		if idx >= uint32(len(n.nipt)) || !n.nipt[idx].Valid {
			n.pio.buf = n.pio.buf[:0]
			return
		}
		// Header assembly still costs time on the board, but the
		// launch is asynchronous to the CPU. An immediate launch
		// copies the FIFO contents itself, so it is lent the buffer.
		data := n.pio.buf
		n.pio.buf = n.pio.buf[:0]
		e := n.nipt[idx]
		if delay := n.lookupNIPT(idx, false); delay > 0 {
			// The board is fetching the entry from the host table;
			// the launch fires when the refill lands — asynchronous
			// to the CPU, which already moved on — so it launches a
			// snapshot of the FIFO. If the board crashes
			// before the refill lands, the deferred launch is stale
			// (the FIFO contents died with the board) and must not fire
			// into the rebooted incarnation.
			data = append([]byte(nil), data...)
			gen := n.gen
			n.clock.ScheduleAfter(delay, func() {
				if n.gen != gen {
					return
				}
				n.launch(e, off, data)
			})
			return
		}
		n.launch(e, off, data)
	}
}

// PIOLoad implements device.PIODevice.
func (n *Interface) PIOLoad(da device.DevAddr) uint32 {
	n.stats.PIOWords++
	if da.Off == PIORegStatus {
		return 1 // FIFO ready
	}
	return 0
}

var (
	_ device.Device         = (*Interface)(nil)
	_ device.PIODevice      = (*Interface)(nil)
	_ interconnect.Endpoint = (*Interface)(nil)
)
