package kernel_test

import (
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/core"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// pioBuffer is a Buffer whose page 1 is a PIO register window.
type pioBuffer struct{ *device.Buffer }

func (pioBuffer) PIOWindow() (first, n uint32, ok bool) { return 1, 1, true }
func (pioBuffer) PIOStore(device.DevAddr, uint32)       {}
func (pioBuffer) PIOLoad(device.DevAddr) uint32         { return 0 }

// spinSnap is everything SpinPolls may change.
type spinSnap struct {
	Now       sim.Cycles
	Quantum   sim.Cycles
	TLBHits   uint64
	TLBMisses uint64
	Walks     uint64
	Ctl       core.Stats
	Events    int
}

func snapSpin(n *machine.Node, p *kernel.Proc) spinSnap {
	s := spinSnap{Now: n.Clock.Now(), Quantum: p.Quantum(), Ctl: n.UDMA.Stats(),
		Events: len(n.Tracer.Events())}
	s.TLBHits, s.TLBMisses = n.TLB.Stats()
	s.Walks, _ = n.MMU.Stats()
	return s
}

// TestSpinPollsRefuses puts a process that has just polled a 4 KB
// send's status and seen MATCH into each state where fast-forwarding
// the next poll could differ from issuing it, and requires SpinPolls to
// take no poll and change nothing. The accept cases sit one cycle past
// each bound and must take exactly one poll, accounted as one LOAD.
func TestSpinPollsRefuses(t *testing.T) {
	const gap sim.Cycles = 4
	const limit sim.Cycles = 6000 // Run limit of the run-limit cases
	zero := 0
	type spinCtx struct {
		n    *machine.Node
		p    *kernel.Proc
		base addr.VAddr // device-proxy window
		per  sim.Cycles // one poll: an uncached reference plus gap
	}
	// computeTo charges the process up to cycle at. The process
	// goroutine is not the test's, so failures are t.Error.
	computeTo := func(t *testing.T, c spinCtx, at sim.Cycles) {
		if c.p.Now() > at {
			t.Errorf("set-up ran to %d, past %d", c.p.Now(), at)
			return
		}
		c.p.Compute(at - c.p.Now())
	}
	cases := []struct {
		name  string
		cfg   machine.Config
		limit sim.Cycles // 0: no run limit
		pio   bool       // poll a PIO window page that a queued transfer is based at
		prep  func(t *testing.T, c spinCtx)
		inK   bool // call SpinPolls as kernel code
		want  uint64
	}{
		{name: "event-within-one-poll", want: 0, prep: func(t *testing.T, c spinCtx) {
			c.n.Clock.Schedule(c.p.Now()+c.per, "tick", func() {})
		}},
		{name: "event-due", want: 0, prep: func(t *testing.T, c spinCtx) {
			c.n.Clock.Schedule(c.p.Now(), "tick", func() {})
		}},
		{name: "event-past-one-poll", want: 1, prep: func(t *testing.T, c spinCtx) {
			c.n.Clock.Schedule(c.p.Now()+c.per+1, "tick", func() {})
		}},
		{name: "quantum-one-poll", want: 0, cfg: machine.Config{Kernel: kernel.Config{Quantum: 3000}},
			prep: func(t *testing.T, c spinCtx) { c.p.Compute(c.p.Quantum() - c.per) }},
		{name: "quantum-past-one-poll", want: 1, cfg: machine.Config{Kernel: kernel.Config{Quantum: 3000}},
			prep: func(t *testing.T, c spinCtx) { c.p.Compute(c.p.Quantum() - c.per - 1) }},
		{name: "run-limit-within-one-poll", want: 0, limit: limit,
			prep: func(t *testing.T, c spinCtx) { computeTo(t, c, limit-c.per+1) }},
		{name: "run-limit-one-poll", want: 1, limit: limit,
			prep: func(t *testing.T, c spinCtx) { computeTo(t, c, limit-c.per) }},
		{name: "tlb-miss", want: 0, cfg: machine.Config{TLBEntries: &zero}},
		{name: "pio-window", want: 0, pio: true, cfg: machine.Config{UDMA: core.Config{QueueDepth: 4}}},
		{name: "dest-loaded", want: 0, cfg: machine.Config{UDMA: core.Config{QueueDepth: 4}},
			prep: func(t *testing.T, c spinCtx) {
				if err := c.p.Store(c.base+addr.PageSize, 64); err != nil {
					t.Error(err)
				}
			}},
		{name: "in-kernel", want: 0, inK: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := machine.New(0, tc.cfg)
			var dev device.Device = device.NewBuffer("buf", 16, 0, 0)
			if tc.pio {
				dev = pioBuffer{device.NewBuffer("pio", 16, 0, 0)}
			}
			n.AttachDevice(dev, 0)
			n.SetTracer(trace.New(n.Clock, 1<<16))
			t.Cleanup(n.Kernel.Shutdown)
			ran := false
			n.Kernel.Spawn("p", func(p *kernel.Proc) {
				base, err := p.MapDevice(dev, true)
				if err != nil {
					t.Error(err)
					return
				}
				va, err := p.Alloc(addr.PageSize)
				if err != nil {
					t.Error(err)
					return
				}
				poll := addr.VProxy(va)
				if tc.pio {
					// Map the PIO page and fill its TLB entry while the
					// bus is idle: a PIO word waits for a DMA burst.
					if _, err := p.Load(base + addr.PageSize); err != nil {
						t.Error(err)
						return
					}
				}
				if err := p.Store(base, addr.PageSize); err != nil {
					t.Error(err)
					return
				}
				if v, err := p.Load(poll); err != nil || !core.Status(v).Initiated() {
					t.Errorf("initiation: %v %v", core.Status(v), err)
					return
				}
				if tc.pio {
					// Queue a device→memory transfer based at the PIO
					// page straight on the controller, so only the PIO
					// check stands between the poll and a batch.
					poll = base + addr.PageSize
					pa := addr.DevProxy(1, 0)
					n.UDMA.Store(addr.Proxy(addr.FrameAddr(p.AddressSpace().Lookup(addr.VPN(va)).PPN)), 64)
					if st := n.UDMA.Load(pa); !st.Initiated() || !n.UDMA.PollWouldMatch(pa) {
						t.Errorf("PIO-based transfer not queued: %v", st)
						return
					}
				} else if _, err := p.Load(poll); err != nil {
					t.Error(err)
					return
				}
				p.Compute(gap)
				c := spinCtx{n: n, p: p, base: base, per: n.Costs.UncachedRef + gap}
				if tc.prep != nil {
					tc.prep(t, c)
				}
				if !n.Engine.Busy() {
					t.Error("the send completed before SpinPolls")
					return
				}
				before := snapSpin(n, p)
				var got uint64
				if tc.inK {
					p.AsKernel(func() { got = p.SpinPolls(poll, gap) })
				} else {
					got = p.SpinPolls(poll, gap)
				}
				after := snapSpin(n, p)
				ran = true
				if got != tc.want {
					t.Errorf("SpinPolls took %d polls, want %d", got, tc.want)
					return
				}
				want := before
				want.Now += sim.Cycles(got) * c.per
				want.TLBHits += got
				want.Ctl.Loads += got
				want.Ctl.Busy += got
				want.Events += int(got)
				if tc.cfg.Kernel.Quantum != 0 {
					want.Quantum -= sim.Cycles(got) * c.per
				}
				if after != want {
					t.Errorf("state after %d polls:\n got %+v\nwant %+v", got, after, want)
				}
			})
			lim := sim.Forever
			if tc.limit != 0 {
				lim = tc.limit
			}
			if err := n.Kernel.Run(lim); err != nil {
				t.Fatal(err)
			}
			if !ran {
				t.Fatal("the process never reached SpinPolls")
			}
		})
	}
}
