package kernel

import (
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/mmu"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// Alloc maps n bytes (rounded up to whole pages) of fresh, zero-filled,
// writable memory into the process and returns its page-aligned base
// virtual address. Frames are allocated eagerly; under memory pressure
// this evicts other pages.
func (p *Proc) Alloc(n int) (addr.VAddr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("kernel: Alloc(%d): size must be positive", n)
	}
	pages := (n + addr.PageSize - 1) / addr.PageSize
	base := p.heapNext
	// Validate the whole range before allocating anything: the heap
	// must stay inside the 1 GB memory region.
	if uint64(base)+uint64(pages) > uint64(addr.RegionMaxPage) {
		return 0, fmt.Errorf("kernel: Alloc(%d): heap would exhaust the memory region", n)
	}
	for i := 0; i < pages; i++ {
		vpn := base + uint32(i)
		pfn, err := p.kernel.allocFrame(p, vpn)
		if err != nil {
			return 0, err
		}
		if err := p.kernel.ram.ZeroFrame(pfn); err != nil {
			return 0, err
		}
		p.as.Set(vpn, mmu.PTE{Valid: true, Present: true, Writable: true, PPN: pfn})
	}
	p.heapNext = base + uint32(pages)
	return addr.PageAddr(base), nil
}

// AllocReadOnly is Alloc followed by write-protecting the pages, for
// testing the "read-only page can be a source but not a destination"
// rule.
func (p *Proc) AllocReadOnly(n int, contents []byte) (addr.VAddr, error) {
	va, err := p.Alloc(n)
	if err != nil {
		return 0, err
	}
	if contents != nil {
		if err := p.WriteBuf(va, contents); err != nil {
			return 0, err
		}
	}
	pages := (n + addr.PageSize - 1) / addr.PageSize
	for i := 0; i < pages; i++ {
		vpn := addr.VPN(va) + uint32(i)
		pte := p.as.Lookup(vpn)
		pte.Writable = false
		// Clean slate: pretend the initial contents came from a file,
		// so I3 starts from "not dirty".
		pte.Dirty = false
		p.kernel.mmu.TLB().FlushPage(p.as.ASID, vpn)
		// Invalidate any proxy mapping so its writability is re-derived.
		p.kernel.invalidateProxyPTE(p, vpn)
	}
	return va, nil
}

// --- frame management ------------------------------------------------------

// allocFrame hands out a free frame, evicting a victim under pressure.
func (k *Kernel) allocFrame(owner *Proc, vpn uint32) (uint32, error) {
	for attempt := 0; attempt < 64; attempt++ {
		if n := len(k.freeList); n > 0 {
			pfn := k.freeList[n-1]
			k.freeList = k.freeList[:n-1]
			k.frames[pfn] = frameInfo{owner: owner, vpn: vpn, used: true}
			return pfn, nil
		}
		if err := k.evictOne(); err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("kernel: allocFrame: could not free a frame")
}

func (k *Kernel) releaseFrame(pfn uint32) {
	k.frames[pfn] = frameInfo{}
	k.freeList = append(k.freeList, pfn)
}

// Pin prevents eviction of the frame backing (proc, vpn) — the
// traditional DMA path (paper Section 2: pages "pinned to prevent the
// virtual memory system from paging them out").
func (k *Kernel) pinFrame(pfn uint32) {
	k.frames[pfn].pinned++
	k.stats.Pins++
	k.clock.Advance(k.costs.PinPage)
}

func (k *Kernel) unpinFrame(pfn uint32) {
	if k.frames[pfn].pinned <= 0 {
		panic(fmt.Sprintf("kernel: unpin of unpinned frame %d", pfn))
	}
	k.frames[pfn].pinned--
	k.stats.Unpins++
	k.clock.Advance(k.costs.UnpinPage)
}

// evictOne selects a victim frame with a second-chance clock sweep and
// pages it out. Invariant I4: a frame named in the engine's SOURCE or
// DESTINATION register, or in the UDMA request queue, is never chosen —
// "the kernel must either find another page to remap, or wait until
// the transfer finishes."
func (k *Kernel) evictOne() error {
	total := len(k.frames)
	// Up to two full sweeps: the first may only clear reference bits.
	for pass := 0; pass < 2*total; pass++ {
		pfn := uint32(k.clockHand)
		k.clockHand = (k.clockHand + 1) % total
		fi := &k.frames[pfn]
		if !fi.used || fi.kernel || fi.pinned > 0 || fi.owner == nil {
			continue
		}
		if !k.hooks.SkipI4Guard && k.frameHeldByUDMA(pfn) {
			k.stats.EvictionStallsI4++
			continue
		}
		pte := fi.owner.as.Lookup(fi.vpn)
		if pte == nil || !pte.Present {
			panic(fmt.Sprintf("kernel: frame table out of sync for frame %d", pfn))
		}
		if pte.Referenced {
			pte.Referenced = false // second chance
			continue
		}
		return k.evictFrame(pfn, fi.owner, fi.vpn, pte)
	}
	// Every candidate is held by UDMA or referenced; wait for the
	// hardware to finish something, then the caller retries.
	if at, ok := k.clock.NextEventAt(); ok {
		k.clock.AdvanceTo(at)
		return nil
	}
	return fmt.Errorf("kernel: memory exhausted: all frames pinned or held by UDMA")
}

// frameHeldByUDMA implements the I4 check. Without queueing the kernel
// reads the two engine registers; with queueing it uses the
// reference-count query. A frame latched in a DestLoaded destination
// register is freed by firing Inval, exactly as Section 6 permits.
func (k *Kernel) frameHeldByUDMA(pfn uint32) bool {
	if k.udma == nil {
		// Traditional path only: the engine registers still matter.
		if !k.engine.Busy() {
			return false
		}
		return k.engineRegisterNames(pfn)
	}
	if k.udma.PageInUse(pfn) {
		return true
	}
	if latched, ok := k.udma.DestLoadedFrame(); ok && latched == pfn {
		k.udma.Inval() // clear the DESTINATION register, then reuse
		return false
	}
	return false
}

func (k *Kernel) engineRegisterNames(pfn uint32) bool {
	src, dst, busy := k.engine.Source(), k.engine.Destination(), k.engine.Busy()
	if !busy {
		return false
	}
	if addr.RegionOf(src) == addr.RegionMemory && addr.PFN(src) == pfn {
		return true
	}
	if addr.RegionOf(dst) == addr.RegionMemory && addr.PFN(dst) == pfn {
		return true
	}
	return false
}

// evictFrame writes the page out if needed and unmaps it, maintaining
// I2 by invalidating the proxy PTE whenever the real mapping changes.
func (k *Kernel) evictFrame(pfn uint32, owner *Proc, vpn uint32, pte *mmu.PTE) error {
	k.stats.Evictions++
	k.tracer.Record(trace.EvEviction, uint64(pfn), uint64(vpn), owner.name)

	if pte.Dirty || pte.SwapSlot == 0 {
		if pte.SwapSlot == 0 {
			pte.SwapSlot = k.swap.Alloc()
		}
		page, err := k.ram.Frame(pfn)
		if err != nil {
			return err
		}
		if err := k.swap.WritePage(pte.SwapSlot, page); err != nil {
			return err
		}
		k.clock.Advance(k.costs.PageCleanCost)
		k.stats.PageOuts++
	}

	pte.Present = false
	pte.Dirty = false
	pte.PPN = 0
	k.mmu.TLB().FlushPage(owner.as.ASID, vpn)

	// I2: the proxy mapping is valid only while the real mapping is.
	if !k.hooks.SkipI2ProxyInval {
		k.invalidateProxyPTE(owner, vpn)
	}

	k.releaseFrame(pfn)
	return nil
}

// invalidateProxyPTE drops the memory-proxy mapping for real page vpn.
func (k *Kernel) invalidateProxyPTE(owner *Proc, vpn uint32) {
	proxyVPN := addr.VPN(addr.VProxy(addr.PageAddr(vpn)))
	if owner.as.Lookup(proxyVPN) != nil {
		owner.as.Clear(proxyVPN)
		k.mmu.TLB().FlushPage(owner.as.ASID, proxyVPN)
	}
}

// pageIn brings a swapped-out page back into a frame.
func (k *Kernel) pageIn(p *Proc, vpn uint32, pte *mmu.PTE) error {
	pfn, err := k.allocFrame(p, vpn)
	if err != nil {
		return err
	}
	page, err := k.swap.ReadPage(pte.SwapSlot)
	if err != nil {
		return err
	}
	if err := k.ram.SetFrame(pfn, page); err != nil {
		return err
	}
	k.clock.Advance(k.costs.PageInLatency)
	k.stats.PageIns++
	k.tracer.Record(trace.EvPageIn, uint64(pfn), uint64(vpn), p.name)
	pte.Present = true
	pte.Dirty = false
	pte.PPN = pfn
	k.mmu.TLB().FlushPage(p.as.ASID, vpn)
	return nil
}

// --- fault handling ---------------------------------------------------------

// handleFault dispatches an MMU fault taken by process p. A returned
// error is the process's problem (segfault); nil means the access
// should be retried.
func (k *Kernel) handleFault(p *Proc, f *mmu.Fault) error {
	k.stats.PageFaults++
	kind := trace.EvPageFault
	if addr.VRegionOf(f.VA).IsProxy() {
		kind = trace.EvProxyFault
	}
	k.tracer.Record(kind, uint64(f.VA), uint64(p.pid), f.Kind.String())
	p.inKernel++
	defer func() { p.inKernel-- }()
	k.clock.Advance(k.costs.FaultHandler)

	switch addr.VRegionOf(f.VA) {
	case addr.RegionMemory:
		return k.handleMemFault(p, f)
	case addr.RegionMemProxy:
		return k.handleMemProxyFault(p, f)
	case addr.RegionDevProxy:
		return k.handleDevProxyFault(p, f)
	default:
		return p.segfault(f.VA, f.Access, f.Kind)
	}
}

func (k *Kernel) handleMemFault(p *Proc, f *mmu.Fault) error {
	vpn := addr.VPN(f.VA)
	switch f.Kind {
	case mmu.FaultNotPresent:
		pte := p.as.Lookup(vpn)
		if pte == nil {
			return p.segfault(f.VA, f.Access, f.Kind)
		}
		return k.pageIn(p, vpn, pte)
	default:
		// Unmapped heap or a write to read-only data: illegal.
		return p.segfault(f.VA, f.Access, f.Kind)
	}
}

// handleMemProxyFault implements the paper's on-demand proxy-mapping
// creation with its three cases (Section 6, "Maintaining I2"), plus the
// I3 write-upgrade protocol ("Maintaining I3").
func (k *Kernel) handleMemProxyFault(p *Proc, f *mmu.Fault) error {
	k.stats.ProxyFaults++
	proxyVPN := addr.VPN(f.VA)
	realVPN := addr.VPN(addr.VUnproxy(f.VA))
	realPTE := p.as.Lookup(realVPN)

	if f.Kind == mmu.FaultProtection {
		// A write to a read-only proxy page: the I3 protocol. Enable
		// the write only if the real page may legally be written.
		if realPTE == nil || !realPTE.Writable {
			return p.segfault(f.VA, f.Access, f.Kind)
		}
		proxyPTE := p.as.Lookup(proxyVPN)
		if proxyPTE == nil {
			// The proxy mapping vanished between fault and handler
			// (e.g. eviction); retry from scratch.
			return nil
		}
		// "the kernel enables writes to PROXY(vmem_page) so the user's
		// transfer can take place; the kernel also marks vmem_page as
		// dirty to maintain I3."
		if !k.hooks.SkipI3Dirty {
			realPTE.Dirty = true
		}
		proxyPTE.Writable = true
		k.mmu.TLB().FlushPage(p.as.ASID, proxyVPN)
		k.stats.ProxyUpgrades++
		return nil
	}

	// Unmapped (or stale) proxy page: the three cases.
	switch {
	case realPTE == nil:
		// Case 3: vmem_page is not accessible — illegal access.
		return p.segfault(f.VA, f.Access, f.Kind)
	case !realPTE.Present:
		// Case 2: valid but not in core — page in, then fall through
		// to case 1 on retry (cheaper: do it now).
		if err := k.pageIn(p, realVPN, realPTE); err != nil {
			return err
		}
	}
	// Case 1: in core and accessible — create the mapping
	// PROXY(vmem_page) → PROXY(pmem_page).
	realPA := addr.FrameAddr(realPTE.PPN)
	if addr.RegionOf(realPA) != addr.RegionMemory {
		return p.segfault(f.VA, f.Access, f.Kind)
	}
	// I3: proxy writable only while the real page is dirty; and a
	// read-only real page may only ever be a transfer source.
	writable := realPTE.Writable && realPTE.Dirty
	if f.Access == mmu.Write && !writable {
		if !realPTE.Writable {
			return p.segfault(f.VA, f.Access, f.Kind)
		}
		// The faulting access is itself a store: mark dirty and map
		// writable in one step (saves the immediate protection fault).
		if !k.hooks.SkipI3Dirty {
			realPTE.Dirty = true
		}
		writable = true
		k.stats.ProxyUpgrades++
	}
	p.as.Set(proxyVPN, mmu.PTE{
		Valid: true, Present: true,
		Writable: writable,
		Uncached: true,
		PPN:      addr.PFN(addr.Proxy(realPA)),
	})
	k.clock.Advance(k.costs.MapProxyPage)
	return nil
}

// handleDevProxyFault creates a device-proxy mapping on demand if the
// process holds a grant from the MapDevice syscall.
func (k *Kernel) handleDevProxyFault(p *Proc, f *mmu.Fault) error {
	if f.Kind == mmu.FaultProtection {
		// Device grants are fixed at MapDevice time; no upgrades.
		return p.segfault(f.VA, f.Access, f.Kind)
	}
	k.stats.ProxyFaults++
	vpn := addr.VPN(f.VA)
	// The simulated machine identity-maps device proxy space: virtual
	// device-proxy page N corresponds to physical device-proxy page N.
	devPage := addr.DevProxyPage(addr.PAddr(f.VA))
	for _, g := range p.devGrants {
		if devPage >= g.firstPage && devPage < g.firstPage+g.nPages {
			if f.Access == mmu.Write && !g.writable {
				return p.segfault(f.VA, f.Access, f.Kind)
			}
			p.as.Set(vpn, mmu.PTE{
				Valid: true, Present: true,
				Writable: g.writable,
				Uncached: true,
				PPN:      uint32(f.VA) >> addr.PageShift,
			})
			k.clock.Advance(k.costs.MapProxyPage)
			return nil
		}
	}
	return p.segfault(f.VA, f.Access, f.Kind)
}

// --- page cleaning (I3) -----------------------------------------------------

// CleanPage writes a dirty page to backing store and clears its dirty
// bit, write-protecting the proxy page to maintain I3. The race the
// paper warns about — "make sure not to clear the dirty bit if a DMA
// transfer to the page is in progress" — is closed by re-checking the
// UDMA reference count: if the frame is a pending transfer target the
// page simply stays dirty.
func (k *Kernel) CleanPage(p *Proc, vpn uint32) error {
	pte := p.as.Lookup(vpn)
	if pte == nil || !pte.Present {
		return fmt.Errorf("kernel: CleanPage of non-resident page %d", vpn)
	}
	if !pte.Dirty {
		return nil
	}
	if pte.SwapSlot == 0 {
		pte.SwapSlot = k.swap.Alloc()
	}
	// I3 race check, half one: the swap copy below snapshots the frame
	// at the *start* of the write-out, so a device→memory transfer that
	// is in flight anywhere across the clean must leave the page dirty —
	// otherwise its data would exist only in a frame the VM system now
	// believes is clean, and a later replacement would lose it.
	inFlightBefore := k.udma != nil && k.udma.PageInUse(pte.PPN)

	page, err := k.ram.Frame(pte.PPN)
	if err != nil {
		return err
	}
	if err := k.swap.WritePage(pte.SwapSlot, page); err != nil {
		return err
	}
	k.clock.Advance(k.costs.PageCleanCost)
	k.stats.CleanedPages++

	// Half two: a transfer may also have *started* while the write-out
	// was in progress.
	if inFlightBefore || (k.udma != nil && k.udma.PageInUse(pte.PPN)) {
		k.stats.CleanRaceKeeps++
		return nil
	}

	pte.Dirty = false
	// Write-protect the proxy page so the next DMA destination use
	// re-marks the page dirty.
	proxyVPN := addr.VPN(addr.VProxy(addr.PageAddr(vpn)))
	if proxyPTE := p.as.Lookup(proxyVPN); proxyPTE != nil {
		proxyPTE.Writable = false
		k.mmu.TLB().FlushPage(p.as.ASID, proxyVPN)
	}
	return nil
}

// StartCleaner runs the page-cleaner daemon: every period cycles it
// sweeps all live processes and writes their dirty pages to backing
// store, write-protecting the corresponding proxy pages (the I3
// protocol's steady-state producer). Real kernels run exactly such a
// daemon so replacement rarely blocks on a write-out. Returns a stop
// function.
func (k *Kernel) StartCleaner(period sim.Cycles) (stop func()) {
	if period == 0 {
		panic("kernel: StartCleaner with zero period")
	}
	stopped := false
	var tick func()
	tick = func() {
		// The daemon dies with the last process — otherwise the
		// self-rescheduling tick would keep the event queue non-empty
		// forever and cluster drains could never finish.
		if stopped || k.AllExited() {
			return
		}
		for _, p := range k.procs {
			if p.state == procExited {
				continue
			}
			// Best effort: a failed clean (e.g. a page racing a
			// transfer) just stays dirty for the next pass.
			_ = k.CleanAllDirty(p)
		}
		k.clock.ScheduleAfter(period, tick)
	}
	k.clock.ScheduleAfter(period, tick)
	return func() { stopped = true }
}

// CleanAllDirty sweeps every resident dirty page of p (the page-cleaner
// daemon's pass).
func (k *Kernel) CleanAllDirty(p *Proc) error {
	var vpns []uint32
	p.as.Walk(func(vpn uint32, e *mmu.PTE) bool {
		if e.Present && e.Dirty && addr.VRegionOf(addr.PageAddr(vpn)) == addr.RegionMemory {
			vpns = append(vpns, vpn)
		}
		return true
	})
	for _, vpn := range vpns {
		if err := k.CleanPage(p, vpn); err != nil {
			return err
		}
	}
	return nil
}

// --- proxy access routing ---------------------------------------------------

// proxyStore routes a store that physically decoded into proxy space:
// PIO windows go to the device, everything else to the UDMA hardware.
// It reports whether the access was a PIO word, whose full cost (the
// bus transaction, which stalls the CPU) it has already charged — the
// caller must not also charge an uncached reference.
func (k *Kernel) proxyStore(pa addr.PAddr, v int32) (pio bool) {
	if dev, da, ok := k.pioResolve(pa); ok {
		k.iobus.PIOWord()
		dev.PIOStore(da, uint32(v))
		return true
	}
	if k.udma == nil {
		return false // writes to nonexistent hardware are dropped on the bus
	}
	k.udma.Store(pa, v)
	return false
}

func (k *Kernel) proxyLoad(pa addr.PAddr) (v uint32, pio bool) {
	if dev, da, ok := k.pioResolve(pa); ok {
		k.iobus.PIOWord()
		return dev.PIOLoad(da), true
	}
	if k.udma == nil {
		return ^uint32(0), false // open bus
	}
	return uint32(k.udma.Load(pa)), false
}

func (k *Kernel) pioResolve(pa addr.PAddr) (device.PIODevice, device.DevAddr, bool) {
	if addr.RegionOf(pa) != addr.RegionDevProxy {
		return nil, device.DevAddr{}, false
	}
	dev, da, ok := k.devmap.Resolve(pa)
	if !ok {
		return nil, device.DevAddr{}, false
	}
	pio, ok := dev.(device.PIODevice)
	if !ok {
		return nil, device.DevAddr{}, false
	}
	first, n, ok := pio.PIOWindow()
	if !ok || da.Page < first || da.Page >= first+n {
		return nil, device.DevAddr{}, false
	}
	return pio, da, true
}
