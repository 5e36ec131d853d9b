// Package workload provides the deterministic input generators shared
// by the experiments, benchmarks and examples: payload patterns,
// message-size sweeps matching the paper's figures, and canned process
// bodies: the user-level UDMA sender, and the paging pressure and
// compute burners used to create background load.
package workload

import (
	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/udmalib"
)

// Payload returns n deterministic, seed-dependent bytes whose last word
// is guaranteed nonzero (receivers poll the final word for arrival).
func Payload(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*31 + seed
	}
	for i := n - 4; i < n; i++ {
		if i >= 0 && out[i] == 0 {
			out[i] = 0xA5
		}
	}
	return out
}

// Fig8Sizes is the message-size sweep of the paper's Figure 8 (0–8 KB
// on the published x-axis), extended beyond 8 KB to exhibit the "max
// sustained" plateau.
func Fig8Sizes() []int {
	return []int{
		64, 128, 256, 512, 1024, 1536, 2048, 3072, 4096,
		4608, 5120, 6144, 7168, 8192, 12288, 16384, 32768, 65536,
	}
}

// HIPPIBlockSizes is the block-size sweep for the traditional-DMA
// overhead experiment (E3).
func HIPPIBlockSizes() []int {
	return []int{256, 1024, 4096, 16384, 65536, 131072, 262144, 524288}
}

// MultiPageSizes is the sweep for the Section 7 queueing experiment.
func MultiPageSizes() []int {
	return []int{4096, 8192, 16384, 32768, 65536}
}

// Pager returns a process body that creates steady paging pressure:
// it allocates pages and re-touches them in a rotating pattern for
// the given simulated duration, forcing the replacement sweep to run.
func Pager(pages int, duration sim.Cycles) func(p *kernel.Proc) {
	return func(p *kernel.Proc) {
		vas := make([]addr.VAddr, 0, pages)
		deadline := p.Now() + duration
		for i := 0; i < pages; i++ {
			va, err := p.Alloc(addr.PageSize)
			if err != nil {
				return
			}
			vas = append(vas, va)
		}
		i := 0
		for p.Now() < deadline {
			if err := p.Store(vas[i%len(vas)], uint32(i)); err != nil {
				return
			}
			i++
			p.Compute(50)
		}
	}
}

// Burner returns a process body that consumes CPU in fixed steps for
// the given duration — background load for scheduling experiments.
func Burner(step, duration sim.Cycles) func(p *kernel.Proc) {
	return func(p *kernel.Proc) {
		deadline := p.Now() + duration
		for p.Now() < deadline {
			p.Compute(step)
		}
	}
}

// Sender is the canned user-level send program of the paper: map the
// device proxy, fill one Size-byte buffer with Payload(Size, Seed), then
// send it in Messages rounds, once to every device offset in Offsets
// ({0} when empty) per round, in the order listed.
type Sender struct {
	Dev      device.Device
	Size     int
	Seed     byte
	Messages int
	Offsets  []uint32
	// Retry, when set, sends with SendRetry under this policy instead
	// of a plain Send.
	Retry *udmalib.RetryPolicy
	// Done, when set, sees every send's latency and error; a non-nil
	// return stops the sender and becomes Run's error. Without it the
	// first send error stops the sender.
	Done func(lat sim.Cycles, err error) error
}

// Run executes the program as p. It returns the cycles spent sending
// (from the start of the first send to the end of the last), the device
// handle's library stats and the error that stopped it, if any.
func (s Sender) Run(p *kernel.Proc) (elapsed sim.Cycles, st udmalib.Stats, err error) {
	d, err := udmalib.Open(p, s.Dev, true)
	if err != nil {
		return 0, st, err
	}
	va, err := p.Alloc(s.Size)
	if err == nil {
		err = p.WriteBuf(va, Payload(s.Size, s.Seed))
	}
	offsets, done := s.Offsets, s.Done
	if len(offsets) == 0 {
		offsets = []uint32{0}
	}
	if done == nil {
		done = func(_ sim.Cycles, err error) error { return err }
	}
	start := p.Now()
	for m := 0; m < s.Messages && err == nil; m++ {
		for i := 0; i < len(offsets) && err == nil; i++ {
			t0 := p.Now()
			if s.Retry != nil {
				err = d.SendRetry(va, offsets[i], s.Size, *s.Retry)
			} else {
				err = d.Send(va, offsets[i], s.Size)
			}
			err = done(p.Now()-t0, err)
		}
	}
	return p.Now() - start, d.Stats(), err
}
