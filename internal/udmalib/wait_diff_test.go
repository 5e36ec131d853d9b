package udmalib_test

import (
	"fmt"
	"reflect"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/core"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
	"shrimp/internal/udmalib"
)

// pollGap is udmalib's per-poll work beyond the status LOAD.
const pollGap sim.Cycles = 4

// refWait is the completion loop Dev.Wait stands for, one LOAD at a
// time: repeat the LOAD until MATCH clears, computing pollGap cycles
// between polls. Each poll is counted before its LOAD, as Wait counts
// it, so a process killed mid-wait still counts the poll it was in.
func refWait(p *kernel.Proc, va addr.VAddr, polls *uint64) error {
	for {
		*polls++
		v, err := p.Load(va)
		if err != nil {
			return err
		}
		st := core.Status(v)
		if !st.Match() {
			if st.DeviceErr() != 0 {
				return &udmalib.HardError{Status: st, Op: "wait"}
			}
			return nil
		}
		p.Compute(pollGap)
	}
}

// start initiates one transfer of n bytes with the two-instruction
// sequence, re-issuing the LOAD alone while the queue is full and the
// whole sequence while the controller is busy or an Inval took the
// STORE half. It is the same on both sides of the differential test.
func start(p *kernel.Proc, dest, src addr.VAddr, n int) error {
	if err := p.Store(dest, uint32(n)); err != nil {
		return err
	}
	for {
		v, err := p.Load(src)
		if err != nil {
			return err
		}
		st := core.Status(v)
		switch {
		case st.Initiated():
			return nil
		case st.DeviceErr() == device.ErrQueueFull:
			continue
		case st.Failed():
			return fmt.Errorf("initiate: %v", st)
		}
		p.Compute(pollGap)
		if err := p.Store(dest, uint32(n)); err != nil {
			return err
		}
	}
}

// waitEnv is one side of the differential test: a node whose
// processes wait for their transfers with Dev.Wait, or with refWait
// when ref is set.
type waitEnv struct {
	n        *machine.Node
	buf      *device.Buffer
	ref      bool
	refPolls uint64
	devs     []*udmalib.Dev
	errs     []string
}

func (e *waitEnv) open(p *kernel.Proc) *udmalib.Dev {
	d, err := udmalib.Open(p, e.buf, true)
	if err != nil {
		panic(err) // a setup bug, the same on both sides
	}
	e.devs = append(e.devs, d)
	return d
}

func (e *waitEnv) wait(p *kernel.Proc, d *udmalib.Dev, va addr.VAddr) {
	var err error
	if e.ref {
		err = refWait(p, va, &e.refPolls)
	} else {
		err = d.Wait(va)
	}
	e.note(err)
}

func (e *waitEnv) note(err error) {
	if err != nil {
		e.errs = append(e.errs, err.Error())
	}
}

// sendPages spawns a process that sends pages whole pages, one at a
// time, from its memory to the device pages from firstDevPage on,
// waiting for each to complete.
func (e *waitEnv) sendPages(name string, firstDevPage, pages int) {
	e.n.Kernel.Spawn(name, func(p *kernel.Proc) {
		d := e.open(p)
		va, err := p.Alloc(pages * addr.PageSize)
		e.note(err)
		e.note(p.WriteBuf(va, pattern(pages*addr.PageSize)))
		for i := 0; i < pages; i++ {
			src := addr.VProxy(va + addr.VAddr(i*addr.PageSize))
			e.note(start(p, d.Base()+addr.VAddr((firstDevPage+i)*addr.PageSize), src, addr.PageSize))
			e.wait(p, d, src)
		}
	})
}

func (e *waitEnv) run() {
	e.note(e.n.Kernel.Run(sim.Forever))
}

// waitRecord is everything of a run the fast-forward must not change.
type waitRecord struct {
	Now       sim.Cycles
	Events    []trace.Event
	Ctl       core.Stats
	Kernel    kernel.Stats
	TLBHits   uint64
	TLBMisses uint64
	Walks     uint64
	Polls     uint64
	Errs      []string
}

func (e *waitEnv) record() waitRecord {
	r := waitRecord{Now: e.n.Clock.Now(), Events: e.n.Tracer.Events(), Ctl: e.n.UDMA.Stats(),
		Kernel: e.n.Kernel.Stats(), Polls: e.refPolls, Errs: e.errs}
	r.TLBHits, r.TLBMisses = e.n.TLB.Stats()
	r.Walks, _ = e.n.MMU.Stats()
	for _, d := range e.devs {
		r.Polls += d.Stats().Polls
	}
	return r
}

// TestWaitMatchesOnePollLoop runs each scenario twice on identically
// built nodes — once waiting with Dev.Wait, whose kernel fast-forwards
// runs of MATCH polls, and once with refWait's one-LOAD-at-a-time loop
// — and requires the same clock, trace ring, controller, kernel and
// TLB counters, and poll count.
func TestWaitMatchesOnePollLoop(t *testing.T) {
	cases := []struct {
		name string
		cfg  machine.Config
		body func(e *waitEnv)
	}{
		{"send-4k", machine.Config{}, func(e *waitEnv) {
			e.sendPages("p", 0, 1)
			e.run()
		}},
		{"quantum-expires-mid-wait", machine.Config{Kernel: kernel.Config{Quantum: 1000}}, func(e *waitEnv) {
			e.sendPages("a", 0, 3)
			e.sendPages("b", 8, 3)
			e.run()
		}},
		{"run-limit-mid-wait", machine.Config{}, func(e *waitEnv) {
			e.sendPages("p", 0, 2)
			for limit := sim.Cycles(997); !e.n.Kernel.AllExited() && limit < 1e6; limit += 997 {
				e.note(e.n.Kernel.Run(limit))
			}
		}},
		{"kill-inside-uncached-ref", machine.Config{}, func(e *waitEnv) {
			e.n.Kernel.Spawn("p", func(p *kernel.Proc) {
				d := e.open(p)
				va, err := p.Alloc(addr.PageSize)
				e.note(err)
				src := addr.VProxy(va)
				e.note(start(p, d.Base(), src, addr.PageSize))
				// Poll i's LOAD starts at now + i·64 and its uncached
				// reference ends 60 cycles later: land the kill 30
				// cycles into poll 40's, long before the DMA completes.
				per := e.n.Costs.UncachedRef + pollGap
				at := p.Now() + 40*per + 30
				e.n.Clock.Schedule(at, func() { e.n.Kernel.Kill(p) })
				e.wait(p, d, src)
				e.note(fmt.Errorf("wait returned after the kill at %d", at))
			})
			e.run()
		}},
		{"queued-multi-page", machine.Config{UDMA: core.Config{QueueDepth: 4}}, func(e *waitEnv) {
			e.n.Kernel.Spawn("p", func(p *kernel.Proc) {
				d := e.open(p)
				const pages = 3
				va, err := p.Alloc(pages * addr.PageSize)
				e.note(err)
				var last addr.VAddr
				for i := 0; i < pages; i++ {
					last = addr.VProxy(va + addr.VAddr(i*addr.PageSize))
					e.note(start(p, d.Base()+addr.VAddr(i*addr.PageSize), last, addr.PageSize))
				}
				e.wait(p, d, last)
			})
			e.run()
		}},
		{"device-proxy-recv", machine.Config{}, func(e *waitEnv) {
			e.buf.SetBytes(2*addr.PageSize, pattern(addr.PageSize))
			e.n.Kernel.Spawn("p", func(p *kernel.Proc) {
				d := e.open(p)
				va, err := p.Alloc(addr.PageSize)
				e.note(err)
				src := d.Base() + 2*addr.PageSize
				e.note(start(p, addr.VProxy(va), src, addr.PageSize))
				e.wait(p, d, src)
			})
			e.run()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			side := func(ref bool) waitRecord {
				n, buf := newNode(t, tc.cfg)
				n.SetTracer(trace.New(n.Clock, 1<<20))
				e := &waitEnv{n: n, buf: buf, ref: ref}
				tc.body(e)
				return e.record()
			}
			got, want := side(false), side(true)
			if len(want.Errs) > 0 {
				t.Fatalf("reference run failed: %v", want.Errs)
			}
			if want.Polls < 20 {
				t.Fatalf("reference made only %d polls: the scenario exercises no wait", want.Polls)
			}
			diffWaitRecords(t, got, want)
		})
	}
}

// diffWaitRecords reports each field where Dev.Wait's run differs from
// the reference, and the first differing trace event.
func diffWaitRecords(t *testing.T, got, want waitRecord) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if name == "Events" {
			continue
		}
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: Dev.Wait %+v, one-poll loop %+v", name, g, w)
		}
	}
	for i := 0; i < max(len(got.Events), len(want.Events)); i++ {
		var g, w trace.Event
		if i < len(got.Events) {
			g = got.Events[i]
		}
		if i < len(want.Events) {
			w = want.Events[i]
		}
		if g != w {
			t.Errorf("trace event %d of %d/%d: Dev.Wait %v, one-poll loop %v",
				i, len(got.Events), len(want.Events), g, w)
			return
		}
	}
}
