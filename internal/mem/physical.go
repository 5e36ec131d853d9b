// Package mem implements the simulated machine's physical memory and
// the backing store (swap device) used by the kernel's demand-paging
// code. Physical memory is frame-granular: the kernel allocates and
// frees whole frames, and the DMA engines and CPU read and write byte
// ranges within them.
package mem

import (
	"fmt"

	"shrimp/internal/addr"
)

// Physical is the machine's RAM: a fixed number of page frames.
type Physical struct {
	frames int
	data   []byte
}

// NewPhysical returns RAM with the given number of 4 KB page frames.
// It panics if frames is not positive — a machine needs memory.
func NewPhysical(frames int) *Physical {
	if frames <= 0 {
		panic(fmt.Sprintf("mem: NewPhysical(%d): frame count must be positive", frames))
	}
	if frames > int(addr.RegionMaxPage) {
		panic(fmt.Sprintf("mem: NewPhysical(%d): exceeds the %d-frame memory region",
			frames, addr.RegionMaxPage))
	}
	return &Physical{
		frames: frames,
		data:   make([]byte, frames*addr.PageSize),
	}
}

// Frames returns the number of page frames.
func (p *Physical) Frames() int { return p.frames }

// Size returns total bytes of RAM.
func (p *Physical) Size() int { return len(p.data) }

// Contains reports whether the physical address range [a, a+n) lies
// entirely inside installed RAM in the real memory region.
func (p *Physical) Contains(a addr.PAddr, n int) bool {
	if addr.RegionOf(a) != addr.RegionMemory || n < 0 {
		return false
	}
	end := uint64(a) + uint64(n)
	return end <= uint64(len(p.data))
}

// Read copies n bytes starting at physical address a into a fresh
// slice. It returns an error for out-of-range accesses — the simulated
// bus master gets a bus error, not a Go panic.
func (p *Physical) Read(a addr.PAddr, n int) ([]byte, error) {
	if err := p.check(a, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, p.data[a:uint64(a)+uint64(n)])
	return out, nil
}

// View returns the n bytes of RAM starting at a as a slice that aliases
// memory, range-checked like Read. It copies nothing, so the caller
// must be done with it before RAM is written again; its capacity ends
// at n, so an append cannot reach past the range.
func (p *Physical) View(a addr.PAddr, n int) ([]byte, error) {
	if err := p.check(a, n); err != nil {
		return nil, err
	}
	end := uint64(a) + uint64(n)
	return p.data[a:end:end], nil
}

// ReadInto copies len(dst) bytes starting at a into dst.
func (p *Physical) ReadInto(a addr.PAddr, dst []byte) error {
	if err := p.check(a, len(dst)); err != nil {
		return err
	}
	copy(dst, p.data[a:uint64(a)+uint64(len(dst))])
	return nil
}

// Write copies src into memory starting at physical address a.
func (p *Physical) Write(a addr.PAddr, src []byte) error {
	if err := p.check(a, len(src)); err != nil {
		return err
	}
	copy(p.data[a:uint64(a)+uint64(len(src))], src)
	return nil
}

// ReadWord reads a 32-bit little-endian word at a (must be in range;
// unaligned reads are allowed, as on x86).
func (p *Physical) ReadWord(a addr.PAddr) (uint32, error) {
	if err := p.check(a, 4); err != nil {
		return 0, err
	}
	d := p.data[a : a+4]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

// WriteWord writes a 32-bit little-endian word at a.
func (p *Physical) WriteWord(a addr.PAddr, v uint32) error {
	if err := p.check(a, 4); err != nil {
		return err
	}
	d := p.data[a : a+4]
	d[0] = byte(v)
	d[1] = byte(v >> 8)
	d[2] = byte(v >> 16)
	d[3] = byte(v >> 24)
	return nil
}

// Frame returns the full contents of frame pfn as a copy.
func (p *Physical) Frame(pfn uint32) ([]byte, error) {
	return p.Read(addr.FrameAddr(pfn), addr.PageSize)
}

// SetFrame overwrites frame pfn with page (which must be PageSize long).
func (p *Physical) SetFrame(pfn uint32, page []byte) error {
	if len(page) != addr.PageSize {
		return fmt.Errorf("mem: SetFrame with %d bytes, want %d", len(page), addr.PageSize)
	}
	return p.Write(addr.FrameAddr(pfn), page)
}

// ZeroFrame clears frame pfn.
func (p *Physical) ZeroFrame(pfn uint32) error {
	a := addr.FrameAddr(pfn)
	if err := p.check(a, addr.PageSize); err != nil {
		return err
	}
	region := p.data[a : int(a)+addr.PageSize]
	for i := range region {
		region[i] = 0
	}
	return nil
}

func (p *Physical) check(a addr.PAddr, n int) error {
	if n < 0 {
		return fmt.Errorf("mem: negative length %d at %#x", n, uint32(a))
	}
	if !p.Contains(a, n) {
		return fmt.Errorf("mem: bus error: [%#x,+%d) outside %d-byte RAM", uint32(a), n, len(p.data))
	}
	return nil
}
