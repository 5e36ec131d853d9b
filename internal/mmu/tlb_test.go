package mmu

import (
	"math/rand/v2"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/raceflag"
	"shrimp/internal/sim"
)

// linearTLB is the TLB as a plain linear scan: the reference the
// indexed TLB must match hit for hit, tick for tick and victim for
// victim.
type linearTLB struct {
	entries      []tlbEntry
	tick         uint64
	hits, misses uint64
}

func (t *linearTLB) peek(asid int, vpn uint32) int {
	for i := range t.entries {
		if e := &t.entries[i]; e.valid && e.asid == asid && e.vpn == vpn {
			return i
		}
	}
	return -1
}

func (t *linearTLB) hit(slot int, n uint64) {
	t.tick += n
	t.entries[slot].lastUse = t.tick
	t.hits += n
}

func (t *linearTLB) lookup(asid int, vpn uint32) int {
	i := t.peek(asid, vpn)
	if i < 0 {
		t.misses++
		return -1
	}
	t.hit(i, 1)
	return i
}

func (t *linearTLB) insert(asid int, vpn, ppn uint32) {
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
	t.entries[victim] = tlbEntry{asid: asid, vpn: vpn, ppn: ppn, writable: true, lastUse: t.tick, valid: true}
}

func (t *linearTLB) flushPage(asid int, vpn uint32) {
	if i := t.peek(asid, vpn); i >= 0 {
		t.entries[i].valid = false
	}
}

func (t *linearTLB) flushASID(asid int) {
	for i := range t.entries {
		if t.entries[i].asid == asid {
			t.entries[i].valid = false
		}
	}
}

func (t *linearTLB) flushAll() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// flushEvery empties t through FlushASID, one call per ASID it holds.
func flushEvery(t *TLB) {
	for i := range t.entries {
		if e := &t.entries[i]; e.valid {
			t.FlushASID(e.asid)
		}
	}
}

// slotOf returns e's slot in t, or -1 for nil.
func slotOf(t *TLB, e *tlbEntry) int {
	if e == nil {
		return -1
	}
	for i := range t.entries {
		if &t.entries[i] == e {
			return i
		}
	}
	panic("entry outside the TLB")
}

// checkIndex verifies that the index holds exactly the valid entries,
// each reachable from its home cell.
func checkIndex(t *testing.T, tlb *TLB) {
	t.Helper()
	cells := 0
	for _, s := range tlb.index {
		if s != 0 {
			cells++
		}
	}
	valid := 0
	for i := range tlb.entries {
		e := &tlb.entries[i]
		if !e.valid {
			continue
		}
		valid++
		c := tlb.home(e.asid, e.vpn)
		for tlb.index[c] != 0 && tlb.index[c] != int32(i+1) {
			c = (c + 1) & (len(tlb.index) - 1)
		}
		if tlb.index[c] == 0 {
			t.Fatalf("valid slot %d (asid %d, vpn %d) not reachable from its home cell", i, e.asid, e.vpn)
		}
	}
	if cells != valid {
		t.Fatalf("index holds %d cells for %d valid entries", cells, valid)
	}
}

// TestTLBMatchesLinearReference drives the indexed TLB and the linear
// reference through the same seeded mix of lookups, MMU-style fills,
// batched hits and the three flushes, with several ASIDs and a working
// set larger than the TLB, and requires the same hit or miss, the same
// slot, the same counters and the same entries (every lastUse and
// victim) after every step.
func TestTLBMatchesLinearReference(t *testing.T) {
	for _, size := range []int{0, 1, 4, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			tlb := NewTLB(size)
			ref := &linearTLB{entries: make([]tlbEntry, size)}
			rng := rand.New(rand.NewPCG(seed, uint64(size)))
			pages := uint32(2*size + 5)
			for step := 0; step < 4000; step++ {
				asid := 1 + rng.IntN(3)
				vpn := rng.Uint32N(pages)
				op := rng.IntN(100)
				switch {
				case op < 60: // a translation: lookup, fill on a miss
					got, want := slotOf(tlb, tlb.lookup(asid, vpn)), ref.lookup(asid, vpn)
					if got != want {
						t.Fatalf("size %d seed %d step %d: lookup(%d, %d) slot %d, want %d",
							size, seed, step, asid, vpn, got, want)
					}
					if want < 0 {
						tlb.insert(asid, vpn, vpn+1000, true, false)
						ref.insert(asid, vpn, vpn+1000)
					}
				case op < 75: // a poll batch: peek, then n hits
					got, want := slotOf(tlb, tlb.peek(asid, vpn)), ref.peek(asid, vpn)
					if got != want {
						t.Fatalf("size %d seed %d step %d: peek(%d, %d) slot %d, want %d",
							size, seed, step, asid, vpn, got, want)
					}
					if want >= 0 {
						n := 1 + rng.Uint64N(50)
						tlb.hit(&tlb.entries[got], n)
						ref.hit(want, n)
					}
				case op < 93:
					tlb.FlushPage(asid, vpn)
					ref.flushPage(asid, vpn)
				case op < 99:
					tlb.FlushASID(asid)
					ref.flushASID(asid)
				default:
					flushEvery(tlb)
					ref.flushAll()
				}
				if tlb.tick != ref.tick || tlb.hits != ref.hits || tlb.misses != ref.misses {
					t.Fatalf("size %d seed %d step %d: tick/hits/misses %d/%d/%d, want %d/%d/%d",
						size, seed, step, tlb.tick, tlb.hits, tlb.misses, ref.tick, ref.hits, ref.misses)
				}
				for i := range ref.entries {
					if tlb.entries[i] != ref.entries[i] {
						t.Fatalf("size %d seed %d step %d: slot %d %+v, want %+v",
							size, seed, step, i, tlb.entries[i], ref.entries[i])
					}
				}
				checkIndex(t, tlb)
			}
		}
	}
}

// TestTLBIndexAllocs: the index is allocated once, in NewTLB; lookups,
// fills with eviction and every flush allocate nothing.
func TestTLBIndexAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tlb := NewTLB(64)
	vpn := uint32(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 200; i++ {
			vpn++
			asid := int(vpn % 3)
			if tlb.lookup(asid, vpn%150) == nil {
				tlb.insert(asid, vpn%150, vpn, true, false)
			}
		}
		tlb.FlushPage(1, vpn%150)
		tlb.FlushASID(2)
		if vpn%1000 == 0 {
			flushEvery(tlb)
		}
	})
	if allocs != 0 {
		t.Fatalf("TLB operations allocate %v times per run, want 0", allocs)
	}
}

// BenchmarkTranslateFullTLB times TLB-hit translations that visit all
// 64 entries round-robin, where the hot-entry benchmark hits only one.
func BenchmarkTranslateFullTLB(b *testing.B) {
	const size = 64
	m := New(NewTLB(size), sim.NewClock(), &sim.CostModel{
		CPUHz: 60e6, TLBMiss: 20, FaultTrap: 50, DMABytesPerCyc: 1, LinkBytesPerCyc: 1,
	})
	as := NewAddressSpace(1)
	var vas [size]addr.VAddr
	for i := range vas {
		vpn := uint32(0x100 + 7*i)
		mapPage(as, vpn, vpn, true)
		vas[i] = addr.VAddr(vpn << addr.PageShift)
		if _, f := m.Translate(as, vas[i], Read); f != nil {
			b.Fatal(f)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr, f := m.Translate(as, vas[i%size], Read); f != nil || !tr.TLBHit {
			b.Fatal("TLB miss in the full-TLB hit benchmark")
		}
	}
}
