package mmu

import (
	"shrimp/internal/addr"
	"shrimp/internal/sim"
)

// Translation is a successful MMU translation result.
type Translation struct {
	PA       addr.PAddr
	Uncached bool
	// TLBHit reports whether the translation was served from the TLB
	// (diagnostics and the TLB ablation experiment).
	TLBHit bool
}

// MMU performs translation and permission checking against an address
// space's page table, charging TLB-hit or page-walk cycles on the
// machine clock.
type MMU struct {
	tlb   *TLB
	clock *sim.Clock
	costs *sim.CostModel

	walks  uint64
	faults uint64
}

// New returns an MMU using the given TLB, clock and cost model.
func New(tlb *TLB, clock *sim.Clock, costs *sim.CostModel) *MMU {
	if tlb == nil || clock == nil || costs == nil {
		panic("mmu: New requires non-nil tlb, clock and costs")
	}
	return &MMU{tlb: tlb, clock: clock, costs: costs}
}

// TLB exposes the TLB for kernel shootdowns and statistics.
func (m *MMU) TLB() *TLB { return m.tlb }

// Stats returns the number of page-table walks and faults taken.
func (m *MMU) Stats() (walks, faults uint64) { return m.walks, m.faults }

// Translate resolves va for the given access in address space as.
// On success it returns the translation; on failure it returns a Fault
// describing what the kernel must do. Time is charged on the clock:
// nothing extra for a TLB hit (the base memory-reference cost is the
// CPU's to charge), TLBMiss cycles for a page walk, and FaultTrap
// cycles when a fault is raised.
//
// Hardware-maintained bits: a successful read sets Referenced; a
// successful write sets Referenced and Dirty on the PTE. A write
// through a TLB-cached translation still consults the PTE for the
// dirty-bit update, as real MMUs do via a micro-walk.
func (m *MMU) Translate(as *AddressSpace, va addr.VAddr, access Access) (Translation, *Fault) {
	vpn := addr.VPN(va)

	if e := m.tlb.lookup(as.ASID, vpn); e != nil {
		if access == Write && !e.writable {
			// Cached read-only translation cannot satisfy a write;
			// fall through to the full walk so the fault carries
			// current PTE state.
			m.tlb.FlushPage(as.ASID, vpn)
		} else {
			if pte := as.Lookup(vpn); pte != nil {
				pte.Referenced = true
				if access == Write {
					pte.Dirty = true
				}
			}
			return e.translation(va), nil
		}
	}

	// Page-table walk.
	m.walks++
	m.clock.Advance(m.costs.TLBMiss)

	pte := as.Lookup(vpn)
	switch {
	case pte == nil:
		return m.fault(FaultUnmapped, va, access)
	case !pte.Present:
		return m.fault(FaultNotPresent, va, access)
	case access == Write && !pte.Writable:
		return m.fault(FaultProtection, va, access)
	}

	pte.Referenced = true
	if access == Write {
		pte.Dirty = true
	}
	m.tlb.insert(as.ASID, vpn, pte.PPN, pte.Writable, pte.Uncached)
	return Translation{PA: pte.PAddr(va), Uncached: pte.Uncached}, nil
}

// ReadHit names the TLB entry a PeekRead found, so RepeatReadHits
// accounts the batch without a second lookup.
type ReadHit struct{ e *tlbEntry }

// PeekRead returns the translation a read of va would take from the
// TLB, and whether it would hit, without counting the hit, ticking the
// LRU clock or setting the Referenced bit. On a hit it also returns the
// entry for RepeatReadHits.
func (m *MMU) PeekRead(as *AddressSpace, va addr.VAddr) (Translation, ReadHit, bool) {
	e := m.tlb.peek(as.ASID, addr.VPN(va))
	if e == nil {
		return Translation{}, ReadHit{}, false
	}
	return e.translation(va), ReadHit{e}, true
}

// RepeatReadHits accounts n reads of va that PeekRead showed would hit
// on h, exactly as n Translate calls would: n TLB hits and LRU ticks,
// and the PTE's Referenced bit. It charges no time, as a hit charges
// none. Nothing may change the TLB between the PeekRead and this call.
func (m *MMU) RepeatReadHits(as *AddressSpace, va addr.VAddr, h ReadHit, n uint64) {
	vpn := addr.VPN(va)
	if e := h.e; e == nil || !e.valid || e.asid != as.ASID || e.vpn != vpn {
		panic("mmu: RepeatReadHits on a TLB miss")
	}
	m.tlb.hit(h.e, n)
	if pte := as.Lookup(vpn); pte != nil {
		pte.Referenced = true
	}
}

// Probe translates without charging time, touching reference bits, or
// filling the TLB. The kernel uses it for bookkeeping decisions.
func (m *MMU) Probe(as *AddressSpace, va addr.VAddr, access Access) (Translation, *Fault) {
	pte := as.Lookup(addr.VPN(va))
	switch {
	case pte == nil:
		return Translation{}, &Fault{Kind: FaultUnmapped, VA: va, Access: access}
	case !pte.Present:
		return Translation{}, &Fault{Kind: FaultNotPresent, VA: va, Access: access}
	case access == Write && !pte.Writable:
		return Translation{}, &Fault{Kind: FaultProtection, VA: va, Access: access}
	}
	return Translation{PA: pte.PAddr(va), Uncached: pte.Uncached}, nil
}

func (m *MMU) fault(kind FaultKind, va addr.VAddr, access Access) (Translation, *Fault) {
	m.faults++
	m.clock.Advance(m.costs.FaultTrap)
	return Translation{}, &Fault{Kind: kind, VA: va, Access: access}
}
