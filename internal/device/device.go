// Package device defines the I/O-device abstraction the DMA and UDMA
// engines transfer against, the device-proxy address map that routes a
// device-proxy page to its device, and two concrete devices from the
// paper's list of UDMA candidates: a disk and a graphics frame buffer
// (the SHRIMP network interface lives in internal/nic).
//
// A device is named by *device proxy addresses* (paper Section 4): a
// fixed one-to-one correspondence between device-proxy pages and
// DMA-able locations inside the device. What a device address means is
// device-specific — a pixel for a frame buffer, a block for a disk, a
// NIPT entry for the network interface.
package device

import (
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/sim"
)

// DevAddr locates a spot inside a device: the device-relative proxy
// page index plus the byte offset on that page.
type DevAddr struct {
	Page uint32 // page index relative to the device's first proxy page
	Off  uint32 // byte offset within the page
}

// Linear returns the flat byte offset Page*PageSize + Off, for devices
// whose proxy pages tile a linear internal space.
func (d DevAddr) Linear() uint64 {
	return uint64(d.Page)*addr.PageSize + uint64(d.Off)
}

// Error bits reported in the device-specific portion of the UDMA status
// word (bits 18+; see internal/core). Devices return an ErrBits mask
// from CheckTransfer.
type ErrBits uint32

const (
	// ErrAlignment: the transfer violates the device's alignment rule
	// (the SHRIMP NIC requires 4-byte alignment).
	ErrAlignment ErrBits = 1 << iota
	// ErrBounds: the device address range does not exist on the device.
	ErrBounds
	// ErrInvalidEntry: the named translation entry is not configured
	// (e.g. an unmapped NIPT entry).
	ErrInvalidEntry
	// ErrReadOnly: a device-to-memory transfer from a write-only
	// location, or memory-to-device to a read-only one.
	ErrReadOnly
	// ErrQueueFull: the UDMA request queue refused the transfer.
	ErrQueueFull
	// ErrTransferFault: the transfer was accepted but failed during
	// data movement (a completion-time device fault or memory-system
	// error) or was terminated by the kernel. Reported by the UDMA
	// status word's error latch, not by CheckTransfer.
	ErrTransferFault
)

// Device is an I/O device that can source or sink DMA transfers.
// Implementations must be deterministic; all timing flows through the
// sim clock and cost model supplied at construction.
type Device interface {
	// Name identifies the device in traces and errors.
	Name() string

	// Pages returns how many device-proxy pages the device decodes.
	Pages() uint32

	// CheckTransfer validates an n-byte transfer at da. toDevice is
	// true for memory→device. It returns zero if the transfer is
	// acceptable, else the device-specific error bits. It must not
	// change device state.
	CheckTransfer(da DevAddr, n int, toDevice bool) ErrBits

	// TransferLatency returns extra per-transfer device time (seek,
	// packetization, …) beyond bus occupancy, charged before data
	// movement completes.
	TransferLatency(da DevAddr, n int) sim.Cycles

	// Write delivers data into the device at da (memory→device). The
	// engine calls it exactly once per completed transfer. now is the
	// completion time, letting devices timestamp or forward (the NIC
	// launches a packet here).
	//
	// data is lent, not given: for a memory→device transfer it is a
	// view of the source RAM, valid only for the duration of the call.
	// A device that keeps any of the bytes copies them (the NIC copies
	// the payload into its wire buffer, as a board's outgoing FIFO
	// does), and none may write to data.
	Write(da DevAddr, data []byte, now sim.Cycles) error

	// Read extracts n bytes from the device at da (device→memory).
	Read(da DevAddr, n int, now sim.Cycles) ([]byte, error)
}

// Map routes device-proxy physical pages to attached devices. One Map
// serves one node; the kernel consults it when creating device-proxy
// mappings and the DMA engines when resolving transfer endpoints.
type Map struct {
	entries []mapEntry
}

type mapEntry struct {
	first, n uint32
	dev      Device
}

// NewMap returns an empty device map.
func NewMap() *Map { return &Map{} }

// Attach decodes nPages device-proxy pages starting at firstPage for
// dev. Ranges must not overlap.
func (m *Map) Attach(dev Device, firstPage uint32) error {
	n := dev.Pages()
	if n == 0 {
		return fmt.Errorf("device: %s decodes zero pages", dev.Name())
	}
	if uint64(firstPage)+uint64(n) > uint64(addr.RegionMaxPage) {
		return fmt.Errorf("device: %s range [%d,+%d) exceeds device proxy region",
			dev.Name(), firstPage, n)
	}
	for _, e := range m.entries {
		if firstPage < e.first+e.n && e.first < firstPage+n {
			return fmt.Errorf("device: %s range [%d,+%d) overlaps %s [%d,+%d)",
				dev.Name(), firstPage, n, e.dev.Name(), e.first, e.n)
		}
	}
	m.entries = append(m.entries, mapEntry{first: firstPage, n: n, dev: dev})
	return nil
}

// Resolve maps a device-proxy physical address to its device and
// device-relative address. ok is false if no device decodes the page.
func (m *Map) Resolve(pa addr.PAddr) (dev Device, da DevAddr, ok bool) {
	if addr.RegionOf(pa) != addr.RegionDevProxy {
		return nil, DevAddr{}, false
	}
	page := addr.DevProxyPage(pa)
	for _, e := range m.entries {
		if page >= e.first && page < e.first+e.n {
			return e.dev, DevAddr{Page: page - e.first, Off: addr.PPageOff(pa)}, true
		}
	}
	return nil, DevAddr{}, false
}

// PageRange returns the absolute device-proxy page range assigned to a
// device, for kernels building user mappings. ok is false if the device
// is not attached.
func (m *Map) PageRange(dev Device) (first, n uint32, ok bool) {
	for _, e := range m.entries {
		if e.dev == dev {
			return e.first, e.n, true
		}
	}
	return 0, 0, false
}
