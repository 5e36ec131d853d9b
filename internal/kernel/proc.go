package kernel

import (
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/mmu"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

type procState int

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

type resumeMsg struct{}

// killedPanic is the sentinel used to unwind a killed process's
// goroutine.
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

	state  procState
	resume chan resumeMsg
	yield  chan yieldReason
	fn     func(p *Proc)

	quantum  sim.Cycles
	inKernel int // >0 while executing kernel code: no preemption
	killed   bool

	heapNext uint32 // next free heap VPN

	// devGrants records device-proxy page ranges this process may map
	// (created by the MapDevice syscall; faulted in on demand).
	devGrants []devGrant

	// autoRanges are the process's automatic-update exports (see
	// autoupdate.go): stores to these pages are snooped to a sink.
	autoRanges []autoRange

	segfaults int
}

type devGrant struct {
	firstPage, nPages uint32 // absolute device-proxy page numbers
	writable          bool
}

// PID returns the process id.
func (p *Proc) PID() int { return p.pid }

// Name returns the spawn name.
func (p *Proc) Name() string { return p.name }

// Segfaults returns how many illegal accesses the process has made.
func (p *Proc) Segfaults() int { return p.segfaults }

// Exited reports whether the process has finished (or been killed and
// reaped).
func (p *Proc) Exited() bool { return p.state == procExited }

// AddressSpace exposes the page table for tests and kernel-side tools.
func (p *Proc) AddressSpace() *mmu.AddressSpace { return p.as }

// main is the coroutine body.
func (p *Proc) main() {
	<-p.resume
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); !ok {
				panic(r)
			}
		}
		p.state = procExited
		p.yield <- yieldExit
	}()
	p.state = procRunning
	p.fn(p)
}

// runSlice resumes the process and waits for it to yield. Called by
// the scheduler only.
func (p *Proc) runSlice() yieldReason {
	p.state = procRunning
	p.resume <- resumeMsg{}
	return <-p.yield
}

// doYield parks the process with the given reason and state, returning
// when the scheduler resumes it.
func (p *Proc) doYield(reason yieldReason, state procState) {
	p.state = state
	p.yield <- reason
	<-p.resume
	p.state = procRunning
	if p.killed {
		panic(killedPanic{})
	}
}

// block parks the process until some kernel event calls wake.
func (p *Proc) block() {
	p.doYield(yieldBlock, procBlocked)
}

// charge consumes simulated CPU time and honors preemption. Kernel
// code (inKernel > 0) is not preemptible.
func (p *Proc) charge(c sim.Cycles) {
	if p.killed {
		panic(killedPanic{})
	}
	p.kernel.clock.Advance(c)
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
	k := p.kernel
	k.clock.ScheduleAfter(d, "sleep-wake", func() { k.wake(p) })
	p.block()
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
	p.segfaults++
	p.kernel.stats.Segfaults++
	p.kernel.tracer.Record(trace.EvSegfault, uint64(va), uint64(p.pid), kind.String())
	return &SegfaultError{VA: va, Access: access, Kind: kind}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Blocked reports whether the process is blocked in the kernel
// (diagnostic; simcheck's liveness reporting reads it).
func (p *Proc) Blocked() bool { return p.state == procBlocked }
