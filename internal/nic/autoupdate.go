package nic

import (
	"shrimp/internal/sim"
)

// Automatic update is the second SHRIMP transfer strategy, retained
// from the original design (paper Section 9: "Our current design
// retains the automatic update transfer strategy described in [5] which
// still relies upon fixed mappings between source and destination
// pages"). Ordinary stores to an exported page are snooped off the
// memory bus by the network interface and propagated to the fixed
// remote page — no initiation sequence at all, at the price of one
// packet stream per mapped page and write-through traffic.
//
// The board combines consecutive snooped words into a single packet
// (real SHRIMP hardware had exactly such a combining buffer) and
// flushes on a gap, on a full buffer, or after a timeout.

// autoUpdateCombineMax is the combining buffer size in bytes.
const autoUpdateCombineMax = 128

// autoUpdateFlushDelay is how long a partially filled combining buffer
// may wait for the next contiguous word before being launched.
const autoUpdateFlushDelay sim.Cycles = 240 // 4 µs at 60 MHz

// autoUpdateState is the combining buffer.
type autoUpdateState struct {
	active   bool
	entry    uint32 // NIPT index the burst goes through
	startOff uint32 // page offset of the first combined word
	data     []byte
	flushEv  sim.Handle
}

// SnoopWrite delivers one 32-bit store snooped from the memory bus to
// the board: the word was written at byte offset off of the
// automatic-update page exported through NIPT entry 'entry'. Writes to
// an invalid entry are dropped (the mapping syscall prevents this; the
// hardware cannot trap).
func (n *Interface) SnoopWrite(entry uint32, off uint32, v uint32) {
	if entry >= uint32(len(n.nipt)) || !n.nipt[entry].Valid {
		n.stats.AutoDrops++
		return
	}
	n.stats.AutoWords++

	au := &n.auto
	contiguous := au.active && au.entry == entry &&
		off == au.startOff+uint32(len(au.data)) &&
		len(au.data)+4 <= autoUpdateCombineMax
	if !contiguous {
		n.FlushAutoUpdate()
		au.active = true
		au.entry = entry
		au.startOff = off
		au.data = au.data[:0]
		// Arm the timeout flush.
		au.flushEv = n.clock.ScheduleAfter(autoUpdateFlushDelay, func() {
			au.flushEv = sim.NoEvent
			n.FlushAutoUpdate()
		})
	}
	au.data = append(au.data, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	if len(au.data) >= autoUpdateCombineMax {
		n.FlushAutoUpdate()
	}
}

// FlushAutoUpdate launches whatever the combining buffer holds. Safe to
// call at any time (idempotent when empty); the kernel calls it on
// context switch so one process's tail write cannot linger.
func (n *Interface) FlushAutoUpdate() {
	au := &n.auto
	if !au.active || len(au.data) == 0 {
		au.active = false
		return
	}
	n.clock.Cancel(au.flushEv)
	au.flushEv = sim.NoEvent
	e := n.nipt[au.entry]
	entry := au.entry
	startOff := au.startOff
	data := au.data // lent to an immediate launch, which copies it
	au.active = false
	au.data = au.data[:0]
	if !e.Valid {
		n.stats.AutoDrops++
		return
	}
	if delay := n.lookupNIPT(entry, false); delay > 0 {
		// Bounded NIPT cache miss: the burst launches when the entry
		// refill lands (the snooping front of the board is already free
		// to start the next burst). A crash before the refill lands
		// makes the deferred launch stale — the combining buffer died
		// with the board. The deferred launch takes a snapshot, since
		// the combining buffer refills before it fires.
		data = append([]byte(nil), data...)
		gen := n.gen
		n.clock.ScheduleAfter(delay, func() {
			if n.gen != gen {
				return
			}
			if err := n.launch(e, startOff, data); err != nil {
				n.stats.AutoDrops++
				return
			}
			n.stats.AutoPackets++
		})
		return
	}
	if err := n.launch(e, startOff, data); err != nil {
		n.stats.AutoDrops++
		return
	}
	n.stats.AutoPackets++
}

// AutoUpdatePending reports whether the combining buffer holds unsent
// data (tests and the kernel's switch path).
func (n *Interface) AutoUpdatePending() bool {
	return n.auto.active && len(n.auto.data) > 0
}
