package mmu

import (
	"math/bits"

	"shrimp/internal/addr"
)

// tlbEntry caches one translation, tagged by (ASID, VPN).
type tlbEntry struct {
	asid     int
	lastUse  uint64
	vpn      uint32
	ppn      uint32
	valid    bool
	writable bool
	uncached bool
}

// translation is the TLB-hit translation of va through e.
func (e *tlbEntry) translation(va addr.VAddr) Translation {
	return Translation{
		PA:       addr.PAddr(e.ppn<<addr.PageShift | addr.PageOff(va)),
		Uncached: e.uncached,
		TLBHit:   true,
	}
}

// TLB is a fully-associative translation lookaside buffer with LRU
// replacement. Entries are tagged with the owning address space's ASID.
//
// Correctness note: the TLB never caches permission *more* permissive
// than the PTE at fill time, and the kernel must call FlushPage after
// editing a PTE (a real OS does exactly this with INVLPG). The dirty
// bit is not cached: stores consult the PTE so the MMU can set Dirty —
// this mirrors hardware that takes a micro-fault to set the D bit.
//
// The modelled hardware searches every entry at once. The simulator
// finds the matching entry through index, an exact map from (ASID, VPN)
// to the slot of its valid entry, and checks memo, the slot the last
// search found, first: most searches repeat the previous one's (ASID,
// VPN). Both only speed up the search: entries, the LRU
// tick, the counters and the victim rule are those of a linear scan,
// so every hit, miss, tick and victim is the same.
type TLB struct {
	entries []tlbEntry
	tick    uint64

	hits   uint64
	misses uint64

	// index is an open-addressed table (linear probing, backward-shift
	// deletion) of slot+1 per valid entry, 0 marking an empty cell. Its
	// length is a power of two at least twice len(entries), so a probe
	// always reaches an empty cell; it is allocated once, in NewTLB.
	index []int32
	shift uint // 64 - log2(len(index)): home cells are the hash's top bits
	memo  int  // slot the last search found
}

// NewTLB returns a TLB with the given number of entries (e.g. 64).
// A size of zero disables caching: every translation is a miss, which
// is useful for the TLB ablation benchmarks.
func NewTLB(size int) *TLB {
	if size <= 0 {
		return &TLB{}
	}
	lg := bits.Len(uint(2*size - 1)) // 1<<lg is the least power of two >= 2*size
	return &TLB{entries: make([]tlbEntry, size), index: make([]int32, 1<<lg), shift: uint(64 - lg)}
}

// Size returns the TLB capacity in entries.
func (t *TLB) Size() int { return len(t.entries) }

// Stats returns cumulative hit and miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// lookup returns the cached entry, counting a hit, or nil, counting a
// miss.
func (t *TLB) lookup(asid int, vpn uint32) *tlbEntry {
	e := t.peek(asid, vpn)
	if e == nil {
		t.misses++
		return nil
	}
	t.hit(e, 1)
	return e
}

// home returns the index cell where the probe for (asid, vpn) starts
// (Fibonacci hashing of the packed tag).
func (t *TLB) home(asid int, vpn uint32) int {
	return int((uint64(uint32(asid))<<32 | uint64(vpn)) * 0x9E3779B97F4A7C15 >> t.shift)
}

// slot returns the slot of the valid entry for (asid, vpn), or -1: the
// memo if it matches, else the index's answer, which becomes the memo.
func (t *TLB) slot(asid int, vpn uint32) int {
	if len(t.entries) == 0 {
		return -1
	}
	if e := &t.entries[t.memo]; e.valid && e.vpn == vpn && e.asid == asid {
		return t.memo
	}
	mask := len(t.index) - 1
	for c := t.home(asid, vpn); ; c = (c + 1) & mask {
		s := int(t.index[c]) - 1
		if s < 0 {
			return -1
		}
		if e := &t.entries[s]; e.vpn == vpn && e.asid == asid {
			t.memo = s
			return s
		}
	}
}

// peek returns the cached entry or nil, touching no counter or LRU
// tick.
func (t *TLB) peek(asid int, vpn uint32) *tlbEntry {
	if s := t.slot(asid, vpn); s >= 0 {
		return &t.entries[s]
	}
	return nil
}

// hit accounts n consecutive hits on e: n LRU ticks, the last of which
// is e's.
func (t *TLB) hit(e *tlbEntry, n uint64) {
	t.tick += n
	e.lastUse = t.tick
	t.hits += n
}

// insert fills an entry, evicting the LRU one if needed. The TLB must
// not already hold (asid, vpn): the MMU inserts only after a miss.
func (t *TLB) insert(asid int, vpn, ppn uint32, writable, uncached bool) {
	if len(t.entries) == 0 {
		return
	}
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			victim = i
			break
		}
		if e.lastUse < oldest {
			oldest = e.lastUse
			victim = i
		}
	}
	if t.entries[victim].valid {
		t.invalidate(victim)
	}
	t.tick++
	t.entries[victim] = tlbEntry{
		asid: asid, vpn: vpn, ppn: ppn,
		writable: writable, uncached: uncached,
		lastUse: t.tick, valid: true,
	}
	c := t.home(asid, vpn)
	for t.index[c] != 0 {
		c = (c + 1) & (len(t.index) - 1)
	}
	t.index[c] = int32(victim + 1)
}

// invalidate clears the valid entry in slot and removes it from the
// index, shifting later cells of its probe run back over the hole.
func (t *TLB) invalidate(slot int) {
	e := &t.entries[slot]
	e.valid = false
	mask := len(t.index) - 1
	hole := t.home(e.asid, e.vpn)
	for t.index[hole] != int32(slot+1) {
		hole = (hole + 1) & mask
	}
	for c := (hole + 1) & mask; t.index[c] != 0; c = (c + 1) & mask {
		s := t.index[c]
		m := &t.entries[s-1]
		// The cell may move back to the hole unless its home lies
		// after the hole on the way to c.
		if (c-t.home(m.asid, m.vpn))&mask >= (c-hole)&mask {
			t.index[hole] = s
			hole = c
		}
	}
	t.index[hole] = 0
}

// FlushPage invalidates any cached translation for (asid, vpn). The
// kernel must call this after changing a PTE.
func (t *TLB) FlushPage(asid int, vpn uint32) {
	if s := t.slot(asid, vpn); s >= 0 {
		t.invalidate(s)
	}
}

// FlushASID invalidates all translations for one address space.
func (t *TLB) FlushASID(asid int) {
	for i := range t.entries {
		if e := &t.entries[i]; e.valid && e.asid == asid {
			t.invalidate(i)
		}
	}
}
