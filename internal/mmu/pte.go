// Package mmu implements the simulated machine's memory management
// unit: per-process two-level page tables, hardware-maintained
// referenced/dirty bits, a TLB with LRU replacement, and the fault
// taxonomy the kernel's demand-paging and proxy-mapping code depends
// on.
//
// The UDMA mechanism (paper Sections 3–4) does all of its permission
// checking and virtual-to-physical translation here — that is the whole
// point: a proxy page is just a page-table entry whose frame number
// lands in a proxy region of the physical address space, so the
// ordinary MMU enforces UDMA protection for free.
package mmu

import (
	"fmt"

	"shrimp/internal/addr"
)

// Access distinguishes read and write references for permission checks.
type Access int

const (
	Read Access = iota
	Write
)

func (a Access) String() string {
	if a == Write {
		return "write"
	}
	return "read"
}

// PTE is one page-table entry. PPN is a *physical page number including
// region bits* (physical address >> 12), so an entry can map a virtual
// page onto real memory, memory proxy space, or device proxy space; the
// region bits travel through translation untouched, which is how the
// UDMA hardware recognizes proxy references on the bus.
type PTE struct {
	// Valid means the process has a legitimate mapping for the page
	// (possibly swapped out). An invalid/absent entry means the access
	// is illegal: FaultUnmapped.
	Valid bool
	// Present means the page is in core: PPN names its frame. A valid
	// but non-present page is on backing store (SwapSlot).
	Present bool
	// Writable allows stores. The kernel toggles this on proxy pages to
	// maintain invariant I3 (proxy writable ⇒ real page dirty).
	Writable bool
	// Uncached marks the page as uncachable; proxy pages are always
	// uncached (the paper: proxy space "is uncachable and it is not
	// backed by any real physical memory").
	Uncached bool
	// Dirty and Referenced are maintained by the MMU on access, as on
	// x86. The kernel clears Dirty when it cleans a page.
	Dirty      bool
	Referenced bool
	// PPN is the physical page number (with region bits) when Present.
	PPN uint32
	// SwapSlot is the backing-store slot when Valid && !Present.
	SwapSlot uint32
}

// PAddr composes the physical address this entry maps va's offset to.
func (e *PTE) PAddr(va addr.VAddr) addr.PAddr {
	return addr.PAddr(e.PPN<<addr.PageShift | addr.PageOff(va))
}

const (
	dirBits   = 10
	tableBits = 10
	dirSize   = 1 << dirBits
	tableSize = 1 << tableBits
)

// AddressSpace is one process's two-level page table: a 1024-entry
// directory of 1024-entry tables, covering the full 32-bit space
// (4 GB / 4 KB pages = 2^20 pages = dirSize * tableSize).
type AddressSpace struct {
	// ASID tags TLB entries so the TLB need not be flushed wholesale on
	// context switch (the simulated hardware supports ASIDs).
	ASID int

	dir [dirSize]*[tableSize]PTE
}

// NewAddressSpace returns an empty address space with the given ASID.
func NewAddressSpace(asid int) *AddressSpace {
	return &AddressSpace{ASID: asid}
}

// Lookup returns the PTE for vpn, or nil if no valid entry exists.
// The returned pointer aliases the table: mutations through it are the
// kernel editing the page table (callers must then flush the TLB page).
func (as *AddressSpace) Lookup(vpn uint32) *PTE {
	t := as.dir[vpn>>tableBits]
	if t == nil {
		return nil
	}
	e := &t[vpn&(tableSize-1)]
	if !e.Valid {
		return nil
	}
	return e
}

// Set installs (or overwrites) the PTE for vpn.
func (as *AddressSpace) Set(vpn uint32, pte PTE) {
	di := vpn >> tableBits
	t := as.dir[di]
	if t == nil {
		t = new([tableSize]PTE)
		as.dir[di] = t
	}
	t[vpn&(tableSize-1)] = pte
}

// Clear removes any mapping for vpn.
func (as *AddressSpace) Clear(vpn uint32) {
	di := vpn >> tableBits
	t := as.dir[di]
	if t == nil {
		return
	}
	t[vpn&(tableSize-1)] = PTE{}
}

// Walk calls fn for every valid entry, in ascending VPN order. fn may
// mutate the entry; returning false stops the walk.
func (as *AddressSpace) Walk(fn func(vpn uint32, e *PTE) bool) {
	for di := 0; di < dirSize; di++ {
		t := as.dir[di]
		if t == nil {
			continue
		}
		for ti := 0; ti < tableSize; ti++ {
			e := &t[ti]
			if !e.Valid {
				continue
			}
			if !fn(uint32(di<<tableBits|ti), e) {
				return
			}
		}
	}
}

// FaultKind classifies translation failures the way the kernel's fault
// handler dispatches on them.
type FaultKind int

const (
	// FaultUnmapped: no valid mapping — an illegal access ("core dump"
	// in the paper's terms), or a proxy page whose mapping has not been
	// created on demand yet.
	FaultUnmapped FaultKind = iota
	// FaultNotPresent: valid mapping but the page is on backing store;
	// the kernel pages it in.
	FaultNotPresent
	// FaultProtection: a write to a page mapped read-only; for proxy
	// pages this is the I3 dirty-bit protocol firing.
	FaultProtection
)

func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultNotPresent:
		return "not-present"
	case FaultProtection:
		return "protection"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault describes a failed translation.
type Fault struct {
	Kind   FaultKind
	VA     addr.VAddr
	Access Access
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mmu: %s fault on %s of %#x", f.Kind, f.Access, uint32(f.VA))
}
