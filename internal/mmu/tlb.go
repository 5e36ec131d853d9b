package mmu

import "shrimp/internal/addr"

// tlbEntry caches one translation, tagged by (ASID, VPN).
type tlbEntry struct {
	asid     int
	vpn      uint32
	ppn      uint32
	writable bool
	uncached bool
	lastUse  uint64
	valid    bool
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
type TLB struct {
	entries []tlbEntry
	tick    uint64

	hits   uint64
	misses uint64
}

// NewTLB returns a TLB with the given number of entries (e.g. 64).
// A size of zero disables caching: every translation is a miss, which
// is useful for the TLB ablation benchmarks.
func NewTLB(size int) *TLB {
	if size < 0 {
		size = 0
	}
	return &TLB{entries: make([]tlbEntry, size)}
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

// peek returns the cached entry or nil, touching no counter or LRU
// tick.
func (t *TLB) peek(asid int, vpn uint32) *tlbEntry {
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.asid == asid && e.vpn == vpn {
			return e
		}
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

// insert fills an entry, evicting the LRU one if needed.
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
	t.tick++
	t.entries[victim] = tlbEntry{
		asid: asid, vpn: vpn, ppn: ppn,
		writable: writable, uncached: uncached,
		lastUse: t.tick, valid: true,
	}
}

// FlushPage invalidates any cached translation for (asid, vpn). The
// kernel must call this after changing a PTE.
func (t *TLB) FlushPage(asid int, vpn uint32) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.asid == asid && e.vpn == vpn {
			e.valid = false
		}
	}
}

// FlushASID invalidates all translations for one address space.
func (t *TLB) FlushASID(asid int) {
	for i := range t.entries {
		if t.entries[i].asid == asid {
			t.entries[i].valid = false
		}
	}
}

// FlushAll empties the TLB.
func (t *TLB) FlushAll() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}
