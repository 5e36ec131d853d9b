package device

import (
	"fmt"

	"shrimp/internal/sim"
)

// Disk is a block storage device driven by UDMA, one of the paper's
// example device classes ("data storage devices such as disks and tape
// drives"). Device-proxy addressing: "If the device is a disk, a
// device address might name a block" — each device-proxy page names one
// 4 KB block, and the offset selects bytes within the block.
//
// Timing: a transfer pays a seek penalty proportional to the head
// distance from the last accessed block plus a fixed rotational
// latency, then streams at the bus burst rate (the engine charges
// that part).
type Disk struct {
	name   string
	blocks [][]byte

	seekPerBlock sim.Cycles // head movement cost per block of distance
	rotational   sim.Cycles // fixed per-access latency

	head       uint32 // current head position (block index)
	reads      uint64
	writes     uint64
	seekBlocks uint64
}

// NewDisk creates a disk with the given number of 4 KB blocks.
func NewDisk(name string, blocks uint32, seekPerBlock, rotational sim.Cycles) *Disk {
	if blocks == 0 {
		panic("device: NewDisk with zero blocks")
	}
	return &Disk{
		name:         name,
		blocks:       make([][]byte, blocks),
		seekPerBlock: seekPerBlock,
		rotational:   rotational,
	}
}

// Name implements Device.
func (d *Disk) Name() string { return d.name }

// Pages implements Device: one proxy page per block.
func (d *Disk) Pages() uint32 { return uint32(len(d.blocks)) }

// CheckTransfer implements Device. A transfer must stay within one
// block (the proxy page IS the block) and be sector-aligned (512 B),
// matching real disk DMA constraints.
func (d *Disk) CheckTransfer(da DevAddr, n int, toDevice bool) ErrBits {
	var bits ErrBits
	if da.Page >= uint32(len(d.blocks)) {
		bits |= ErrBounds
	}
	if int(da.Off)+n > pageSize {
		bits |= ErrBounds
	}
	if da.Off%512 != 0 || n%512 != 0 {
		bits |= ErrAlignment
	}
	return bits
}

// TransferLatency implements Device: seek + rotational delay.
func (d *Disk) TransferLatency(da DevAddr, n int) sim.Cycles {
	dist := int64(da.Page) - int64(d.head)
	if dist < 0 {
		dist = -dist
	}
	return d.rotational + sim.Cycles(dist)*d.seekPerBlock
}

// Write implements Device (memory→disk).
func (d *Disk) Write(da DevAddr, data []byte, _ sim.Cycles) error {
	if err := d.bounds(da, len(data)); err != nil {
		return err
	}
	d.moveHead(da.Page)
	blk := d.block(da.Page)
	copy(blk[da.Off:], data)
	d.writes++
	return nil
}

// Read implements Device (disk→memory).
func (d *Disk) Read(da DevAddr, n int, _ sim.Cycles) ([]byte, error) {
	if err := d.bounds(da, n); err != nil {
		return nil, err
	}
	d.moveHead(da.Page)
	blk := d.block(da.Page)
	out := make([]byte, n)
	copy(out, blk[da.Off:])
	d.reads++
	return out, nil
}

// Preload fills a block directly (test/setup hook, no timing).
func (d *Disk) Preload(block uint32, data []byte) error {
	if err := d.bounds(DevAddr{Page: block}, len(data)); err != nil {
		return err
	}
	copy(d.block(block), data)
	return nil
}

// Stats returns read/write/seek counters.
func (d *Disk) Stats() (reads, writes, seekBlocks uint64) {
	return d.reads, d.writes, d.seekBlocks
}

func (d *Disk) bounds(da DevAddr, n int) error {
	if da.Page >= uint32(len(d.blocks)) || int(da.Off)+n > pageSize {
		return fmt.Errorf("device: %s access block %d off %d len %d out of bounds",
			d.name, da.Page, da.Off, n)
	}
	return nil
}

func (d *Disk) block(i uint32) []byte {
	if d.blocks[i] == nil {
		d.blocks[i] = make([]byte, pageSize)
	}
	return d.blocks[i]
}

func (d *Disk) moveHead(to uint32) {
	dist := int64(to) - int64(d.head)
	if dist < 0 {
		dist = -dist
	}
	d.seekBlocks += uint64(dist)
	d.head = to
}

var _ Device = (*Disk)(nil)
