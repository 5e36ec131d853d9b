package kernel

import (
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/mmu"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

type procState uint8

const (
	procReady procState = iota
	procRunning
	procBlocked
	procExited
)

type yieldReason int

const (
	yieldPreempt yieldReason = iota
	yieldBlock
	yieldExit
)

// killedPanic is the sentinel used to unwind a killed process's
// coroutine.
type killedPanic struct{}

// SegfaultError reports an illegal access; the paper's kernel would
// core-dump the process, the simulator surfaces it to the program so
// tests can assert on it.
type SegfaultError struct {
	VA     addr.VAddr
	Access mmu.Access
	Kind   mmu.FaultKind
}

func (e *SegfaultError) Error() string {
	return fmt.Sprintf("segfault: %s of %#x (%s)", e.Access, uint32(e.VA), e.Kind)
}

// Proc is one simulated user process. Its exported methods are the
// process's "instruction set": each charges simulated time, goes
// through the MMU, and may fault into the kernel. Methods must only be
// called from within the process's own function (the coroutine the
// kernel resumed); the simulator is single-threaded by handoff.
type Proc struct {
	pid    int
	name   string
	kernel *Kernel
	as     *mmu.AddressSpace

	fn func(p *Proc)
	// next resumes the coroutine until it yields a reason (true) or
	// its body returns (false); yield is the body's half of the same
	// iter.Pull handoff, saved when the body starts.
	next  func() (yieldReason, bool)
	yield func(yieldReason) bool
	// wakeFn is the prebuilt sleep-wake event callback, so Sleep
	// schedules without allocating a closure.
	wakeFn func()
	// idle and idleFor are the condition and period of the SleepWhile
	// the process is in (idle is nil outside one); Kernel.Run reads
	// them to re-arm an idle wake without resuming the coroutine.
	idle    func() bool
	idleFor sim.Cycles

	quantum  sim.Cycles
	inKernel int32 // >0 while executing kernel code: no preemption
	killed   bool
	state    procState
	heapNext uint32 // next free heap VPN

	// devGrants records device-proxy page ranges this process may map
	// (created by the MapDevice syscall; faulted in on demand).
	devGrants []devGrant

	// autoRanges are the process's automatic-update exports (see
	// autoupdate.go): stores to these pages are snooped to a sink.
	autoRanges []autoRange
}

type devGrant struct {
	firstPage, nPages uint32 // absolute device-proxy page numbers
	writable          bool
}

// PID returns the process id.
func (p *Proc) PID() int { return p.pid }

// Name returns the spawn name.
func (p *Proc) Name() string { return p.name }

// Exited reports whether the process has finished (or been killed and
// reaped).
func (p *Proc) Exited() bool { return p.state == procExited }

// AddressSpace exposes the page table for tests and kernel-side tools.
func (p *Proc) AddressSpace() *mmu.AddressSpace { return p.as }

// block parks the process until some kernel event calls wake.
func (p *Proc) block() {
	p.doYield(yieldBlock, procBlocked)
}

// charge consumes simulated CPU time and honors preemption. Kernel
// code (inKernel > 0) is not preemptible. A kill that an event fires
// inside the charge unwinds the process at its end, before the
// instruction after it (say the initiating LOAD after a STORE half)
// can reach the hardware.
func (p *Proc) charge(c sim.Cycles) {
	if p.killed {
		panic(killedPanic{})
	}
	p.kernel.clock.Advance(c)
	if p.killed {
		panic(killedPanic{})
	}
	// A run-limit yield lets Run(limit) regain control from processes
	// that never block (busy loops with preemption disabled).
	if p.kernel.clock.Now() > p.kernel.runLimit {
		p.doYield(yieldPreempt, procReady)
		return
	}
	if p.kernel.cfg.Quantum == 0 || p.inKernel > 0 {
		return
	}
	if p.quantum <= c {
		p.quantum = 0
		p.doYield(yieldPreempt, procReady)
		return
	}
	p.quantum -= c
}

// Sleep blocks the process for d cycles of simulated time.
func (p *Proc) Sleep(d sim.Cycles) {
	p.kernel.clock.ScheduleAfter(d, p.wakeFn)
	p.block()
}

// SleepWhile sleeps d cycles at a time for as long as idle reports
// true: it is exactly `for idle() { p.Sleep(d) }`. idle must read host
// state only, and charge no simulated time. The scheduler may then
// evaluate it in the process's place when the process wakes, and put it
// back to sleep without resuming it (see Kernel.Run).
func (p *Proc) SleepWhile(d sim.Cycles, idle func() bool) {
	p.idle, p.idleFor = idle, d
	for idle() {
		p.Sleep(d)
	}
	p.idle = nil
}

// Compute charges d cycles of pure computation.
func (p *Proc) Compute(d sim.Cycles) { p.charge(d) }

// Now returns the current simulated time.
func (p *Proc) Now() sim.Cycles { return p.kernel.clock.Now() }

// Micros converts a cycle count to microseconds under the node's cost
// model (convenience for examples and experiments).
func (p *Proc) Micros(c sim.Cycles) float64 { return p.kernel.costs.Micros(c) }

// --- memory instructions ---------------------------------------------------

// Load performs one 32-bit user-level load. For ordinary memory it
// returns the word at va; for proxy addresses it returns the UDMA
// status word — this is the LOAD half of the paper's two-instruction
// initiation sequence. Illegal accesses return a *SegfaultError.
func (p *Proc) Load(va addr.VAddr) (uint32, error) {
	pa, uncached, err := p.translate(va, mmu.Read)
	if err != nil {
		return 0, err
	}
	switch addr.RegionOf(pa) {
	case addr.RegionMemory:
		if uncached {
			p.charge(p.kernel.costs.UncachedRef)
		} else {
			p.charge(p.kernel.costs.MemRefHit)
		}
		v, rerr := p.kernel.ram.ReadWord(pa)
		if rerr != nil {
			return 0, rerr
		}
		return v, nil
	case addr.RegionMemProxy, addr.RegionDevProxy:
		v, pio := p.kernel.proxyLoad(pa)
		if !pio {
			// A PIO word's bus transaction already stalled the CPU;
			// UDMA status loads cost one uncached reference.
			p.charge(p.kernel.costs.UncachedRef)
		}
		return v, nil
	default:
		return 0, p.segfault(va, mmu.Read, mmu.FaultUnmapped)
	}
}

// SpinPolls fast-forwards a completion poll loop — repeat a LOAD of va,
// then compute for gap cycles — after a LOAD of va that saw MATCH. It
// accounts, in one step, every further poll certain to see MATCH again
// and returns how many it took, or 0 when it cannot prove one. Each
// poll's counters, trace event, TLB tick and cycles are exactly those
// of the one-poll loop, because the batch fires no clock event (only an
// event can change the controller's answer or kill the process while
// this one runs), crosses no run limit and exhausts no quantum.
func (p *Proc) SpinPolls(va addr.VAddr, gap sim.Cycles) uint64 {
	k := p.kernel
	if p.killed || p.inKernel > 0 || k.udma == nil {
		return 0
	}
	now := k.clock.Now()
	if now > k.runLimit {
		return 0
	}
	room := k.runLimit - now // cycles the batch may span
	if at, ok := k.clock.NextEventAt(); ok {
		if at <= now {
			return 0
		}
		room = min(room, at-now-1)
	}
	if k.cfg.Quantum != 0 {
		if p.quantum == 0 {
			return 0
		}
		room = min(room, p.quantum-1)
	}
	per := k.costs.UncachedRef + gap
	n := uint64(room / per)
	if n == 0 {
		return 0
	}
	tr, h, hit := k.mmu.PeekRead(p.as, va)
	if !hit || !addr.RegionOf(tr.PA).IsProxy() {
		return 0
	}
	if _, _, pio := k.pioResolve(tr.PA); pio || !k.udma.PollWouldMatch(tr.PA) {
		return 0
	}
	k.mmu.RepeatReadHits(p.as, va, h, n)
	k.udma.RepeatPolls(tr.PA, n, per)
	span := sim.Cycles(n) * per
	k.clock.Advance(span)
	if k.cfg.Quantum != 0 {
		p.quantum -= span
	}
	return n
}

// Store performs one 32-bit user-level store. A store to a proxy
// address is the STORE half of the initiation sequence (or an Inval
// when v's sign bit is set).
func (p *Proc) Store(va addr.VAddr, v uint32) error {
	pa, uncached, err := p.translate(va, mmu.Write)
	if err != nil {
		return err
	}
	switch addr.RegionOf(pa) {
	case addr.RegionMemory:
		if uncached {
			p.charge(p.kernel.costs.UncachedRef)
		} else {
			p.charge(p.kernel.costs.MemRefHit)
		}
		if err := p.kernel.ram.WriteWord(pa, v); err != nil {
			return err
		}
		p.snoopStore(va, v) // automatic update, if the page is exported
		return nil
	case addr.RegionMemProxy, addr.RegionDevProxy:
		if pio := p.kernel.proxyStore(pa, int32(v)); !pio {
			p.charge(p.kernel.costs.UncachedRef)
		}
		return nil
	default:
		return p.segfault(va, mmu.Write, mmu.FaultUnmapped)
	}
}

// WriteBuf places data into the process's memory without charging
// simulated time for the byte movement — the benchmarks use it to model
// payload data that already exists before the measured operation. The
// page-level machinery still runs for real: translations happen, pages
// fault in, dirty bits are set (invariant I3 depends on that).
// Automatic-update exports are NOT snooped by WriteBuf — only real
// Store instructions reach the bus the NIC snoops.
func (p *Proc) WriteBuf(va addr.VAddr, data []byte) error {
	off := 0
	for off < len(data) {
		a := va + addr.VAddr(off)
		n := min(addr.BytesToPageEnd(a), len(data)-off)
		pa, _, err := p.translate(a, mmu.Write)
		if err != nil {
			return err
		}
		if addr.RegionOf(pa) != addr.RegionMemory {
			return p.segfault(a, mmu.Write, mmu.FaultUnmapped)
		}
		if err := p.kernel.ram.Write(pa, data[off:off+n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// ReadBuf copies n bytes out of the process's memory without charging
// time (verification hook; the inverse of WriteBuf).
func (p *Proc) ReadBuf(va addr.VAddr, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for len(out) < n {
		a := va + addr.VAddr(len(out))
		chunk := min(addr.BytesToPageEnd(a), n-len(out))
		pa, _, err := p.translate(a, mmu.Read)
		if err != nil {
			return nil, err
		}
		if addr.RegionOf(pa) != addr.RegionMemory {
			return nil, p.segfault(a, mmu.Read, mmu.FaultUnmapped)
		}
		b, rerr := p.kernel.ram.Read(pa, chunk)
		if rerr != nil {
			return nil, rerr
		}
		out = append(out, b...)
	}
	return out, nil
}

// translate runs the MMU, invoking the kernel fault handlers until the
// access succeeds or is ruled illegal.
func (p *Proc) translate(va addr.VAddr, access mmu.Access) (addr.PAddr, bool, error) {
	for attempt := 0; ; attempt++ {
		tr, fault := p.kernel.mmu.Translate(p.as, va, access)
		if fault == nil {
			return tr.PA, tr.Uncached, nil
		}
		if attempt >= 4 {
			// A correct kernel resolves a fault in one pass; repeated
			// faults on the same access indicate a handler bug.
			panic(fmt.Sprintf("kernel: unresolvable fault loop at %#x (%v)", uint32(va), fault))
		}
		if err := p.kernel.handleFault(p, fault); err != nil {
			return 0, false, err
		}
	}
}

func (p *Proc) segfault(va addr.VAddr, access mmu.Access, kind mmu.FaultKind) error {
	p.kernel.stats.Segfaults++
	p.kernel.tracer.Record(trace.EvSegfault, uint64(va), uint64(p.pid), kind.String())
	return &SegfaultError{VA: va, Access: access, Kind: kind}
}

// Blocked reports whether the process is blocked in the kernel
// (diagnostic; simcheck's liveness reporting reads it).
func (p *Proc) Blocked() bool { return p.state == procBlocked }
