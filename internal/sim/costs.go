package sim

import "fmt"

// CostModel names every cycle cost charged by the simulator. One
// instance describes one machine generation; machine.SHRIMP1996 is the
// calibrated configuration that reproduces the paper's published shape
// (see DESIGN.md §2 and EXPERIMENTS.md).
//
// All fields are in CPU cycles unless stated otherwise.
type CostModel struct {
	// CPUHz is the simulated core clock; it converts Cycles to seconds
	// for reporting. The SHRIMP nodes were 60 MHz Pentium Xpress PCs.
	CPUHz float64

	// --- CPU / memory system ---

	MemRefHit    Cycles // load/store, TLB hit, cache-resident
	TLBMiss      Cycles // page-table walk added on a TLB miss
	UncachedRef  Cycles // load/store to an uncached (proxy / device) address
	FaultTrap    Cycles // fault detection + kernel entry (trap overhead)
	FaultHandler Cycles // generic fault bookkeeping inside the kernel

	// --- kernel paths ---

	// WriteThroughStore is the extra cost of a store to a page exported
	// for automatic update: such pages are write-through (the NIC
	// snoops the memory bus), so every store goes to the bus instead of
	// being absorbed by the cache.
	WriteThroughStore Cycles

	SyscallEntry   Cycles // user→kernel crossing (trap + save)
	SyscallExit    Cycles // kernel→user crossing (restore + return)
	ContextSwitch  Cycles // scheduler + register/address-space switch
	PinPage        Cycles // pin one physical page for traditional DMA
	UnpinPage      Cycles // unpin one physical page
	TranslatePage  Cycles // kernel software translation of one page
	BuildDescPage  Cycles // build one page entry of a DMA descriptor
	CopyPerWord    Cycles // kernel memcpy cost per 32-bit word (bounce buffers)
	InterruptEntry Cycles // device interrupt delivery + dispatch
	MapProxyPage   Cycles // create one proxy PTE in the proxy fault handler
	PageInLatency  Cycles // fetch one page from backing store (disk-ish)
	PageCleanCost  Cycles // write one dirty page to backing store

	// --- DMA engine / buses ---

	DMAStartup     Cycles  // engine arbitration + first-word latency per transfer
	DMABytesPerCyc float64 // burst-mode throughput of the I/O bus, bytes/cycle
	PIOWordCost    Cycles  // programmed-I/O store of one 32-bit word to a device

	// --- SHRIMP network interface ---

	NIPTLookup      Cycles  // index NIPT, form remote physical address
	PacketHeader    Cycles  // header assembly per packet
	PacketPerPage   Cycles  // per-packet launch overhead (FIFO + link entry)
	LinkBytesPerCyc float64 // backplane link throughput, bytes/cycle
	LinkLatency     Cycles  // per-hop routing latency
	RecvDMAStartup  Cycles  // receive-side EISA DMA engine startup per packet
}

// Validate reports a descriptive error if the model is unusable.
func (m *CostModel) Validate() error {
	switch {
	case m.CPUHz <= 0:
		return fmt.Errorf("sim: CostModel.CPUHz must be positive, got %g", m.CPUHz)
	case m.DMABytesPerCyc <= 0:
		return fmt.Errorf("sim: CostModel.DMABytesPerCyc must be positive, got %g", m.DMABytesPerCyc)
	case m.LinkBytesPerCyc <= 0:
		return fmt.Errorf("sim: CostModel.LinkBytesPerCyc must be positive, got %g", m.LinkBytesPerCyc)
	}
	return nil
}

// Seconds converts a cycle count to seconds under this model.
func (m *CostModel) Seconds(c Cycles) float64 {
	return float64(c) / m.CPUHz
}

// Micros converts a cycle count to microseconds under this model.
func (m *CostModel) Micros(c Cycles) float64 {
	return m.Seconds(c) * 1e6
}

// DMACycles returns the burst-mode bus occupancy for n bytes, excluding
// engine startup.
func (m *CostModel) DMACycles(n int) Cycles {
	if n <= 0 {
		return 0
	}
	return Cycles(float64(n)/m.DMABytesPerCyc + 0.999999)
}

// LinkCycles returns the wire time for n bytes on one backplane link.
func (m *CostModel) LinkCycles(n int) Cycles {
	if n <= 0 {
		return 0
	}
	return Cycles(float64(n)/m.LinkBytesPerCyc + 0.999999)
}

// LinkCyclesAt returns the wire time for n bytes on a link running at
// bytesPerCyc instead of the model's host-interface rate. Fabric
// topologies use this to give routed links their own capacity while
// the inject FIFO keeps draining at LinkBytesPerCyc.
func (m *CostModel) LinkCyclesAt(n int, bytesPerCyc float64) Cycles {
	if n <= 0 {
		return 0
	}
	if bytesPerCyc <= 0 {
		bytesPerCyc = m.LinkBytesPerCyc
	}
	return Cycles(float64(n)/bytesPerCyc + 0.999999)
}
