// Package trace provides a lightweight event tracer for the simulated
// machine: a bounded ring buffer of timestamped events that the UDMA
// controller, DMA engine, kernel and network interface feed when a
// tracer is attached. It exists for the same reason hardware people put
// logic analyzers on buses — the interesting bugs in this system are
// orderings (a context-switch Inval landing between two references, an
// eviction racing a transfer), and a linear event record is how you see
// them.
//
// An event is an instant (Record) or an interval that ends when it is
// recorded (Span): a transfer from enqueue to completion, an engine
// burst, a receive DMA. Both kinds share one ring per node, so the
// record stays in time order and the Perfetto export (internal/
// telemetry) draws instants and intervals from the same stream.
//
// Tracing is strictly opt-in and free when disabled: components hold a
// nil *Tracer and skip the call.
package trace

import (
	"fmt"
	"io"
	"strings"

	"shrimp/internal/sim"
)

// Kind classifies an event.
type Kind int

const (
	// UDMA controller events.
	EvStore Kind = iota
	EvLoad
	EvInval
	EvInitiation
	EvBadLoad
	EvTransferDone
	EvTransferFail
	EvTerminate
	// DMA engine events.
	EvDMA
	// Kernel events.
	EvContextSwitch
	EvPageFault
	EvProxyFault
	EvEviction
	EvPageIn
	EvSegfault
	EvMachineCheck
	// Network events.
	EvPacketSend
	EvPacketRecv
	// Wire fault events (recorded by the backplane fault plan on the
	// sender's tracer).
	EvWireDrop
	EvWireDup
	EvWireCorrupt
	EvWireDelay
	EvLinkFlap
	// NIC reliability-layer events.
	EvRetransmit
	EvCrcDrop
	EvDupDrop
	EvCreditStall
	EvDeliveryFail

	numKinds
)

var kindNames = [numKinds]string{
	EvStore:         "store",
	EvLoad:          "load",
	EvInval:         "inval",
	EvInitiation:    "initiate",
	EvBadLoad:       "badload",
	EvTransferDone:  "xfer-done",
	EvTransferFail:  "xfer-fail",
	EvTerminate:     "terminate",
	EvDMA:           "dma",
	EvContextSwitch: "ctx-switch",
	EvPageFault:     "page-fault",
	EvProxyFault:    "proxy-fault",
	EvEviction:      "evict",
	EvPageIn:        "page-in",
	EvSegfault:      "segfault",
	EvMachineCheck:  "machine-check",
	EvPacketSend:    "pkt-send",
	EvPacketRecv:    "pkt-recv",
	EvWireDrop:      "wire-drop",
	EvWireDup:       "wire-dup",
	EvWireCorrupt:   "wire-corrupt",
	EvWireDelay:     "wire-delay",
	EvLinkFlap:      "link-flap",
	EvRetransmit:    "retransmit",
	EvCrcDrop:       "crc-drop",
	EvDupDrop:       "dup-drop",
	EvCreditStall:   "credit-stall",
	EvDeliveryFail:  "delivery-fail",
}

// Kinds returns every declared event kind in numeric order, so
// summaries cannot silently drop a newly added kind.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String returns the event kind's short name.
func (k Kind) String() string {
	if k >= 0 && k < numKinds && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one trace record. At is when it was recorded; an interval
// event began Dur cycles earlier (Dur 0 is an instant). A and B carry
// kind-specific operands (addresses, counts, pids); Note is optional
// human context.
type Event struct {
	At   sim.Cycles
	Dur  sim.Cycles
	Kind Kind
	A, B uint64
	Note string
}

func (e Event) String() string {
	s := fmt.Sprintf("%10d  %-11s a=%#x b=%#x", e.At, e.Kind, e.A, e.B)
	if e.Dur > 0 {
		s += fmt.Sprintf(" dur=%d", e.Dur)
	}
	if e.Note != "" {
		s += "  " + e.Note
	}
	return s
}

// Tracer is a bounded ring buffer of events, written by one node's
// components (one writer at a time, so it takes no lock). Storage grows
// on demand up to the capacity, then the ring wraps and overwrites the
// oldest events. The zero value is unusable; call New. A nil *Tracer is
// a valid "tracing off" value: Record and Span on nil are no-ops.
type Tracer struct {
	clock *sim.Clock
	ring  []Event
	limit int
	next  int // once the ring is full, the slot of the oldest event
	// counts is maintained per-kind at record time so Counts and Summary
	// report lifetime totals even after the ring wraps and old events
	// are overwritten.
	counts [numKinds]uint64
}

// New returns a tracer recording up to capacity events on the clock.
func New(clock *sim.Clock, capacity int) *Tracer {
	if clock == nil {
		panic("trace: New requires a clock")
	}
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{clock: clock, limit: capacity}
}

// Record appends an instant event. Safe to call on a nil tracer.
func (t *Tracer) Record(kind Kind, a, b uint64, note string) {
	if t == nil {
		return
	}
	t.add(Event{At: t.clock.Now(), Kind: kind, A: a, B: b, Note: note})
}

// RecordEvery appends n instant events, the first at start and then
// one every step cycles: what n Record calls made at those times would
// append. Safe to call on a nil tracer.
func (t *Tracer) RecordEvery(kind Kind, a, b uint64, start, step sim.Cycles, n uint64) {
	if t == nil {
		return
	}
	t.counts[kind] += n
	i := uint64(0)
	for ; i < n && len(t.ring) < t.limit; i++ {
		t.grow(len(t.ring) + 1)
		t.ring = append(t.ring, Event{At: start + sim.Cycles(i)*step, Kind: kind, A: a, B: b})
	}
	// The ring is full: overwrite in place, as add would.
	for ; i < n; i++ {
		t.ring[t.next] = Event{At: start + sim.Cycles(i)*step, Kind: kind, A: a, B: b}
		if t.next++; t.next == t.limit {
			t.next = 0
		}
	}
}

// Span appends an interval event that began at start and ends now.
// Safe to call on a nil tracer.
func (t *Tracer) Span(kind Kind, start sim.Cycles, a, b uint64, note string) {
	if t == nil {
		return
	}
	now := t.clock.Now()
	t.add(Event{At: now, Dur: now - start, Kind: kind, A: a, B: b, Note: note})
}

func (t *Tracer) add(e Event) {
	t.counts[e.Kind]++
	if len(t.ring) < t.limit {
		t.grow(len(t.ring) + 1)
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.next] = e
	t.next++
	if t.next == t.limit {
		t.next = 0
	}
}

// grow makes room for n buffered events (n <= limit), doubling the
// storage, capped at the limit, as often as that takes: append's
// gentler growth for large slices copies a full ring several times
// over.
func (t *Tracer) grow(n int) {
	c := cap(t.ring)
	if n <= c {
		return
	}
	for c < n {
		c = min(max(2*c, 64), t.limit)
	}
	grown := make([]Event, len(t.ring), c)
	copy(grown, t.ring)
	t.ring = grown
}

// Events returns the *buffered* events, oldest first — at most the ring
// capacity. After a wrap this window covers only the newest events;
// Counts and Summary still report the whole lifetime.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Tail returns the newest n buffered events, oldest first (the compact
// event-trail slice failure reports embed). n <= 0 or n larger than the
// buffered window returns everything buffered.
func (t *Tracer) Tail(n int) []Event {
	evs := t.Events()
	if n <= 0 || n >= len(evs) {
		return evs
	}
	return evs[len(evs)-n:]
}

// Dump writes the buffered events to w, one per line.
func (t *Tracer) Dump(w io.Writer) {
	for _, e := range t.Events() {
		fmt.Fprintln(w, e)
	}
}

// Counts returns lifetime per-kind event counts (kinds never recorded
// are absent). Unlike Events, the counts are accumulated at record
// time, so they stay accurate after the ring wraps.
func (t *Tracer) Counts() map[Kind]uint64 {
	out := make(map[Kind]uint64)
	if t == nil {
		return out
	}
	for k, c := range t.counts {
		if c > 0 {
			out[Kind(k)] = c
		}
	}
	return out
}

// Summary renders the lifetime per-kind counts compactly, in kind order.
func (t *Tracer) Summary() string {
	counts := t.Counts()
	var parts []string
	for _, k := range Kinds() {
		if c := counts[k]; c > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, c))
		}
	}
	if len(parts) == 0 {
		return "(no events)"
	}
	return strings.Join(parts, " ")
}
