package nic

import (
	"slices"

	"shrimp/internal/sim"
)

// The SHRIMP board of the paper holds its whole 32 K-entry NIPT in
// on-board SRAM, which is exactly the assumption OpenURMA shows modern
// NICs cannot keep: per-connection state grows with (app, endpoint)
// pairs and stops fitting on the NIC. This file models the
// datacenter-scale variant: the full NIPT lives in a host-memory
// backing table (the `nipt` slice — always authoritative for entry
// *values*), and the board caches only NIPTCapacity entries. A
// data-path lookup that hits is free, as in the original hardware; a
// miss pays a seeded, deterministic host-memory refill cost on
// simulated time and installs the entry, evicting the exact-LRU
// resident line. Capacity 0 disables the cache: every entry is
// resident, every lookup a hit — the seed behavior, and the baseline
// the capacity-equivalence property test compares against.
//
// Correctness never depends on the cache. Entry values are read from
// the backing table at every use; the cache decides only *when* the
// board may use them. That is what makes it a pure performance model:
// any run with capacity >= the number of valid entries is bit-identical
// to the unbounded board, because SetNIPT write-allocates (installs are
// warm) and nothing is ever evicted.

// niptRefill is the refill cost charged per miss when the cache is
// enabled: a host-memory table walk over the I/O bus, ~4 µs at the
// SHRIMP clock.
const niptRefill sim.Cycles = 240

// niptCache is the board's bounded NIPT residency tracker. Only
// residency is tracked; entry values stay in the backing table.
type niptCache struct {
	cap int
	// used is each entry's last access tick while it is resident and 0
	// while it is not. Ticks are monotonic and unique, so LRU has no
	// ties.
	used     []uint64
	resident []uint32 // the resident entries, in no particular order
	tick     uint64
	jitter   sim.Cycles // per-miss refill jitter bound (0 = fixed cost)
	rng      *sim.RNG   // drawn ONLY on a miss, so all-hit runs never touch it

	// The DMA engine runs one transfer at a time; its entry is pinned
	// from TransferLatency until the matching Write so capacity
	// pressure can never evict an entry with an in-flight referenced
	// transfer (the I4 analogue on the board).
	pinned uint32
	hasPin bool
}

// lookupNIPT charges one data-path NIPT access at index idx. A hit is
// free (the entry is on the board); a miss pays the seeded refill cost,
// returned as extra latency, and installs the entry. pin marks the
// entry as referenced by the engine's in-flight transfer; the previous
// pin, if any, is released first — the engine is strictly one transfer
// at a time, so a new pinned lookup proves the prior flight is over
// (completed, aborted, or failed by an injected device fault).
func (n *Interface) lookupNIPT(idx uint32, pin bool) sim.Cycles {
	n.stats.NIPTLookups++
	c := n.cache
	if c == nil {
		n.stats.NIPTHits++
		return 0
	}
	if pin {
		c.hasPin = false
	}
	var cost sim.Cycles
	if c.used[idx] != 0 {
		n.stats.NIPTHits++
	} else {
		n.stats.NIPTMisses++
		cost = niptRefill
		if c.jitter > 0 {
			cost += sim.Cycles(c.rng.Intn(int(c.jitter)))
		}
		n.stats.NIPTRefillCycles += uint64(cost)
	}
	// A hit only refreshes the entry's tick.
	if n.installLine(idx) && pin {
		c.pinned, c.hasPin = idx, true
	}
	return cost
}

// installLine makes idx resident, evicting the LRU unpinned line when
// the cache is full. It reports whether the entry is resident
// afterward; false only when every line is pinned (capacity 1 with an
// in-flight transfer elsewhere), in which case the access bypasses the
// cache — charged, but not installed.
func (n *Interface) installLine(idx uint32) bool {
	c := n.cache
	if c.used[idx] == 0 {
		if len(c.resident) >= c.cap && !n.evictLine() {
			return false
		}
		c.resident = append(c.resident, idx)
	}
	c.tick++
	c.used[idx] = c.tick
	return true
}

// evictLine drops the least-recently-used unpinned line. Access ticks
// are unique, so the victim — and therefore the whole eviction
// sequence — is the same at any resident-list order and any worker
// count.
func (n *Interface) evictLine() bool {
	c := n.cache
	victim := -1
	for i, idx := range c.resident {
		if c.hasPin && idx == c.pinned {
			continue
		}
		if victim < 0 || c.used[idx] < c.used[c.resident[victim]] {
			victim = i
		}
	}
	if victim < 0 {
		return false
	}
	c.drop(victim)
	n.stats.NIPTEvictions++
	return true
}

// drop makes resident[i] non-resident; the last resident entry takes
// its place in the list.
func (c *niptCache) drop(i int) {
	c.used[c.resident[i]] = 0
	last := len(c.resident) - 1
	c.resident[i] = c.resident[last]
	c.resident = c.resident[:last]
}

// invalidateLine drops residency when software tears an entry down.
// This is not an eviction (no counter): the valid bit lives beside the
// tag, so an invalidated line simply ceases to exist. If the line was
// pinned the in-flight transfer is doomed anyway — Write through an
// invalid entry fails — so the pin is released too.
func (n *Interface) invalidateLine(idx uint32) {
	c := n.cache
	if c.used[idx] != 0 {
		c.drop(slices.Index(c.resident, idx))
	}
	if c.hasPin && c.pinned == idx {
		c.hasPin = false
	}
}

// releasePin ends the in-flight reference on idx, if that is what the
// pin covers (the transfer's completion Write reached the board).
func (n *Interface) releasePin(idx uint32) {
	if c := n.cache; c != nil && c.hasPin && c.pinned == idx {
		c.hasPin = false
	}
}

// --- diagnostics (tests, fuzzers) -------------------------------------------

// NIPTResident reports whether entry idx is resident on the board.
// Always true without a cache (the whole table is on-NIC).
func (n *Interface) NIPTResident(idx uint32) bool {
	if n.cache == nil {
		return true
	}
	return int(idx) < len(n.cache.used) && n.cache.used[idx] != 0
}

// NIPTResidentCount returns the number of resident cache lines, or -1
// when the cache is disabled.
func (n *Interface) NIPTResidentCount() int {
	if n.cache == nil {
		return -1
	}
	return len(n.cache.resident)
}

// NIPTPinned returns the entry pinned by an in-flight transfer, if any.
func (n *Interface) NIPTPinned() (uint32, bool) {
	if n.cache == nil || !n.cache.hasPin {
		return 0, false
	}
	return n.cache.pinned, true
}
