package mmu

import (
	"testing"
	"testing/quick"

	"shrimp/internal/addr"
	"shrimp/internal/sim"
)

func testMMU(tlbSize int) (*MMU, *sim.Clock) {
	clock := sim.NewClock()
	costs := &sim.CostModel{
		CPUHz: 60e6, TLBMiss: 20, FaultTrap: 50,
		DMABytesPerCyc: 1, LinkBytesPerCyc: 1,
	}
	return New(NewTLB(tlbSize), clock, costs), clock
}

func mapPage(as *AddressSpace, vpn, ppn uint32, writable bool) {
	as.Set(vpn, PTE{Valid: true, Present: true, Writable: writable, PPN: ppn})
}

func TestTranslateBasics(t *testing.T) {
	m, _ := testMMU(8)
	as := NewAddressSpace(1)
	mapPage(as, 5, 42, true)

	tr, f := m.Translate(as, 5*addr.PageSize+0x123, Read)
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
	want := addr.PAddr(42*addr.PageSize + 0x123)
	if tr.PA != want {
		t.Fatalf("PA = %#x, want %#x", uint32(tr.PA), uint32(want))
	}
	if tr.TLBHit {
		t.Fatal("first access reported a TLB hit")
	}

	tr2, f := m.Translate(as, 5*addr.PageSize+0x456, Read)
	if f != nil {
		t.Fatalf("fault on second access: %v", f)
	}
	if !tr2.TLBHit {
		t.Fatal("second access missed the TLB")
	}
}

func TestTranslateChargesWalkCycles(t *testing.T) {
	m, clock := testMMU(8)
	as := NewAddressSpace(1)
	mapPage(as, 1, 1, true)

	m.Translate(as, addr.PageSize, Read) // miss: walk
	afterMiss := clock.Now()
	if afterMiss != 20 {
		t.Fatalf("walk charged %d cycles, want 20", afterMiss)
	}
	m.Translate(as, addr.PageSize+4, Read) // hit: free at MMU level
	if clock.Now() != afterMiss {
		t.Fatalf("TLB hit charged %d cycles, want 0", clock.Now()-afterMiss)
	}
}

func TestFaultTaxonomy(t *testing.T) {
	m, _ := testMMU(8)
	as := NewAddressSpace(1)
	mapPage(as, 1, 1, false)                                 // read-only
	as.Set(2, PTE{Valid: true, Present: false, SwapSlot: 7}) // swapped out
	mapPage(as, 3, 3, true)                                  // fine

	cases := []struct {
		name   string
		va     addr.VAddr
		access Access
		want   FaultKind
	}{
		{"unmapped read", 0, Read, FaultUnmapped},
		{"unmapped write", 9 * addr.PageSize, Write, FaultUnmapped},
		{"write to read-only", addr.PageSize, Write, FaultProtection},
		{"swapped out", 2 * addr.PageSize, Read, FaultNotPresent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, f := m.Translate(as, tc.va, tc.access)
			if f == nil {
				t.Fatal("no fault")
			}
			if f.Kind != tc.want {
				t.Fatalf("fault kind = %v, want %v", f.Kind, tc.want)
			}
			if f.VA != tc.va || f.Access != tc.access {
				t.Fatalf("fault = %+v", f)
			}
		})
	}
	if _, f := m.Translate(as, addr.PageSize, Read); f != nil {
		t.Fatalf("read of read-only page faulted: %v", f)
	}
}

func TestFaultChargesTrapCycles(t *testing.T) {
	m, clock := testMMU(8)
	as := NewAddressSpace(1)
	m.Translate(as, 0, Read)
	if clock.Now() != 20+50 { // walk + trap
		t.Fatalf("fault path charged %d cycles, want 70", clock.Now())
	}
}

func TestReferencedAndDirtyBits(t *testing.T) {
	m, _ := testMMU(8)
	as := NewAddressSpace(1)
	mapPage(as, 1, 1, true)
	pte := as.Lookup(1)

	m.Translate(as, addr.PageSize, Read)
	if !pte.Referenced || pte.Dirty {
		t.Fatalf("after read: ref=%v dirty=%v, want true,false", pte.Referenced, pte.Dirty)
	}
	m.Translate(as, addr.PageSize, Write)
	if !pte.Dirty {
		t.Fatal("write did not set dirty bit")
	}
}

func TestDirtyBitSetEvenOnTLBHit(t *testing.T) {
	m, _ := testMMU(8)
	as := NewAddressSpace(1)
	mapPage(as, 1, 1, true)
	m.Translate(as, addr.PageSize, Read) // fill TLB
	pte := as.Lookup(1)
	pte.Dirty = false

	tr, f := m.Translate(as, addr.PageSize, Write)
	if f != nil || !tr.TLBHit {
		t.Fatalf("expected TLB-hit write, got hit=%v fault=%v", tr.TLBHit, f)
	}
	if !pte.Dirty {
		t.Fatal("TLB-hit write did not set PTE dirty bit")
	}
}

func TestWriteThroughReadOnlyTLBEntryFaults(t *testing.T) {
	m, _ := testMMU(8)
	as := NewAddressSpace(1)
	mapPage(as, 1, 1, false)
	if _, f := m.Translate(as, addr.PageSize, Read); f != nil {
		t.Fatalf("read faulted: %v", f)
	}
	_, f := m.Translate(as, addr.PageSize, Write)
	if f == nil || f.Kind != FaultProtection {
		t.Fatalf("write after cached read-only entry: fault=%v, want protection", f)
	}
}

// The I3 upgrade pattern: kernel makes a proxy page writable after a
// protection fault; the next write must succeed (TLB flushed).
func TestPTEUpgradeVisibleAfterFlush(t *testing.T) {
	m, _ := testMMU(8)
	as := NewAddressSpace(1)
	mapPage(as, 1, 1, false)
	m.Translate(as, addr.PageSize, Read) // cache it

	pte := as.Lookup(1)
	pte.Writable = true
	m.TLB().FlushPage(as.ASID, 1)

	if _, f := m.Translate(as, addr.PageSize, Write); f != nil {
		t.Fatalf("write after upgrade faulted: %v", f)
	}
}

func TestDowngradeRequiresFlush(t *testing.T) {
	m, _ := testMMU(8)
	as := NewAddressSpace(1)
	mapPage(as, 1, 1, true)
	m.Translate(as, addr.PageSize, Write) // cache writable entry

	pte := as.Lookup(1)
	pte.Writable = false
	// Without a flush the stale TLB entry still allows the write — this
	// documents why the kernel MUST flush (as real kernels must).
	if _, f := m.Translate(as, addr.PageSize, Write); f != nil {
		t.Fatalf("stale-TLB write unexpectedly faulted: %v", f)
	}
	m.TLB().FlushPage(as.ASID, 1)
	if _, f := m.Translate(as, addr.PageSize, Write); f == nil {
		t.Fatal("write after downgrade+flush did not fault")
	}
}

func TestUncachedAttributeSurvivesTLB(t *testing.T) {
	m, _ := testMMU(8)
	as := NewAddressSpace(1)
	as.Set(1, PTE{Valid: true, Present: true, Writable: true, Uncached: true,
		PPN: addr.MemProxyBase>>addr.PageShift | 3})

	tr, f := m.Translate(as, addr.PageSize, Read)
	if f != nil || !tr.Uncached {
		t.Fatalf("first: fault=%v uncached=%v", f, tr.Uncached)
	}
	if addr.RegionOf(tr.PA) != addr.RegionMemProxy {
		t.Fatalf("proxy PPN translated to region %v", addr.RegionOf(tr.PA))
	}
	tr, f = m.Translate(as, addr.PageSize+8, Read)
	if f != nil || !tr.Uncached || !tr.TLBHit {
		t.Fatalf("second: fault=%v uncached=%v hit=%v", f, tr.Uncached, tr.TLBHit)
	}
}

func TestASIDIsolation(t *testing.T) {
	m, _ := testMMU(8)
	as1 := NewAddressSpace(1)
	as2 := NewAddressSpace(2)
	mapPage(as1, 1, 10, true)
	mapPage(as2, 1, 20, true)

	tr1, _ := m.Translate(as1, addr.PageSize, Read)
	tr2, _ := m.Translate(as2, addr.PageSize, Read)
	if addr.PFN(tr1.PA) != 10 || addr.PFN(tr2.PA) != 20 {
		t.Fatalf("cross-ASID confusion: %#x / %#x", uint32(tr1.PA), uint32(tr2.PA))
	}
	// Both again — must hit their own entries.
	tr1b, _ := m.Translate(as1, addr.PageSize, Read)
	if !tr1b.TLBHit || addr.PFN(tr1b.PA) != 10 {
		t.Fatalf("ASID 1 re-access: hit=%v pfn=%d", tr1b.TLBHit, addr.PFN(tr1b.PA))
	}
}

func TestTLBEvictionLRU(t *testing.T) {
	m, _ := testMMU(2)
	as := NewAddressSpace(1)
	for vpn := uint32(1); vpn <= 3; vpn++ {
		mapPage(as, vpn, vpn+100, true)
	}
	m.Translate(as, 1*addr.PageSize, Read) // fill 1
	m.Translate(as, 2*addr.PageSize, Read) // fill 2
	m.Translate(as, 1*addr.PageSize, Read) // touch 1 (2 is now LRU)
	m.Translate(as, 3*addr.PageSize, Read) // evicts 2

	tr, _ := m.Translate(as, 1*addr.PageSize, Read)
	if !tr.TLBHit {
		t.Fatal("recently used entry was evicted")
	}
	tr, _ = m.Translate(as, 2*addr.PageSize, Read)
	if tr.TLBHit {
		t.Fatal("LRU entry was not evicted")
	}
}

func TestZeroSizeTLBAlwaysMisses(t *testing.T) {
	m, clock := testMMU(0)
	as := NewAddressSpace(1)
	mapPage(as, 1, 1, true)
	m.Translate(as, addr.PageSize, Read)
	m.Translate(as, addr.PageSize, Read)
	if clock.Now() != 40 { // two walks
		t.Fatalf("zero TLB charged %d cycles, want 40", clock.Now())
	}
	hits, misses := m.TLB().Stats()
	_ = hits
	_ = misses // stats on disabled TLB are unused but must not crash
}

func TestProbeHasNoSideEffects(t *testing.T) {
	m, clock := testMMU(8)
	as := NewAddressSpace(1)
	mapPage(as, 1, 1, true)
	before := clock.Now()
	tr, f := m.Probe(as, addr.PageSize+4, Write)
	if f != nil || tr.PA != addr.PAddr(addr.PageSize+4) {
		t.Fatalf("probe: %v %v", tr, f)
	}
	if clock.Now() != before {
		t.Fatal("Probe charged cycles")
	}
	pte := as.Lookup(1)
	if pte.Referenced || pte.Dirty {
		t.Fatal("Probe touched PTE bits")
	}
	if _, f := m.Probe(as, 5*addr.PageSize, Read); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("probe of unmapped = %v", f)
	}
}

func TestFlushASIDAndAll(t *testing.T) {
	m, _ := testMMU(8)
	as1, as2 := NewAddressSpace(1), NewAddressSpace(2)
	mapPage(as1, 1, 1, true)
	mapPage(as2, 1, 2, true)
	m.Translate(as1, addr.PageSize, Read)
	m.Translate(as2, addr.PageSize, Read)

	m.TLB().FlushASID(1)
	tr, _ := m.Translate(as1, addr.PageSize, Read)
	if tr.TLBHit {
		t.Fatal("FlushASID(1) left ASID 1 entry")
	}
	tr, _ = m.Translate(as2, addr.PageSize, Read)
	if !tr.TLBHit {
		t.Fatal("FlushASID(1) removed ASID 2 entry")
	}

	flushEvery(m.TLB())
	tr, _ = m.Translate(as2, addr.PageSize, Read)
	if tr.TLBHit {
		t.Fatal("flushing every ASID left an entry")
	}
}

func TestAddressSpaceSetClearCounts(t *testing.T) {
	as := NewAddressSpace(1)
	if mapped(as) != 0 {
		t.Fatal("fresh space has mappings")
	}
	mapPage(as, 7, 1, true)
	mapPage(as, 7, 2, true) // overwrite, still one mapping
	if mapped(as) != 1 {
		t.Fatalf("Mapped = %d, want 1", mapped(as))
	}
	as.Clear(7)
	as.Clear(7) // double clear: no-op
	if mapped(as) != 0 {
		t.Fatalf("Mapped = %d, want 0", mapped(as))
	}
	if as.Lookup(7) != nil {
		t.Fatal("cleared entry still resolves")
	}
	as.Clear(12345) // clear of never-touched directory: no-op
}

func TestWalkVisitsInOrder(t *testing.T) {
	as := NewAddressSpace(1)
	for _, vpn := range []uint32{9000, 3, 1024, 5} {
		mapPage(as, vpn, vpn, true)
	}
	var got []uint32
	as.Walk(func(vpn uint32, e *PTE) bool {
		got = append(got, vpn)
		return true
	})
	want := []uint32{3, 5, 1024, 9000}
	if len(got) != len(want) {
		t.Fatalf("Walk visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Walk order %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	as.Walk(func(uint32, *PTE) bool { count++; return false })
	if count != 1 {
		t.Fatalf("Walk continued after false: %d visits", count)
	}
}

// Property: translation preserves the page offset and maps the page
// number via the PTE, for arbitrary in-page offsets.
func TestTranslationOffsetProperty(t *testing.T) {
	m, _ := testMMU(16)
	as := NewAddressSpace(1)
	mapPage(as, 77, 123, true)
	prop := func(off16 uint16) bool {
		off := uint32(off16) % addr.PageSize
		va := addr.VAddr(77*addr.PageSize + off)
		tr, f := m.Translate(as, va, Read)
		if f != nil {
			return false
		}
		return tr.PA == addr.PAddr(123*addr.PageSize+off)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewRequiresDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil,...) did not panic")
		}
	}()
	New(nil, nil, nil)
}

func TestStatsCount(t *testing.T) {
	m, _ := testMMU(4)
	as := NewAddressSpace(1)
	mapPage(as, 1, 1, true)
	m.Translate(as, addr.PageSize, Read)   // walk
	m.Translate(as, addr.PageSize, Read)   // hit
	m.Translate(as, 9*addr.PageSize, Read) // walk + fault
	walks, faults := m.Stats()
	if walks != 2 || faults != 1 {
		t.Fatalf("Stats = (%d,%d), want (2,1)", walks, faults)
	}
	hits, misses := m.TLB().Stats()
	_ = misses
	if hits != 1 {
		t.Fatalf("TLB hits = %d, want 1", hits)
	}
}
