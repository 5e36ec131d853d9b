// Package kernel implements the simulated node's operating system: a
// round-robin scheduler over coroutine processes, demand-paged virtual
// memory with a backing store, the proxy-mapping support the UDMA
// mechanism requires (paper Section 6, invariants I1–I4), and the
// traditional kernel-initiated DMA syscall path that serves as the
// paper's baseline (Section 2).
//
// The four invariants, where they live:
//
//	I1 (atomicity)          — switchTo fires Controller.Inval on every
//	                          context switch.
//	I2 (mapping consistency)— handleMemProxyFault creates proxy PTEs on
//	                          demand with the 3-case handler; evictFrame
//	                          invalidates the proxy PTE whenever the
//	                          real mapping changes.
//	I3 (content consistency)— proxy PTEs are writable only while the
//	                          real page is dirty; the proxy write-
//	                          protection fault marks the real page dirty
//	                          and upgrades; CleanPage write-protects the
//	                          proxy page and re-checks in-flight DMA.
//	I4 (register consistency)— evictFrame refuses victims whose frame is
//	                          in the engine registers or the UDMA queue
//	                          (Controller.PageInUse), optionally
//	                          Inval-ing a DestLoaded latch.
package kernel

import (
	"errors"
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/bus"
	"shrimp/internal/core"
	"shrimp/internal/device"
	"shrimp/internal/dma"
	"shrimp/internal/mem"
	"shrimp/internal/mmu"
	"shrimp/internal/sim"
	"shrimp/internal/telemetry"
	"shrimp/internal/trace"
)

// Config tunes the kernel.
type Config struct {
	// Quantum is the scheduling time slice in cycles. Zero disables
	// preemption (processes run until they block or exit).
	Quantum sim.Cycles
	// BounceFrames is the number of pre-pinned kernel bounce-buffer
	// frames reserved for the copying traditional-DMA variant. Zero
	// disables that path.
	BounceFrames int
}

// Stats counts kernel events for the experiments.
type Stats struct {
	ContextSwitches  uint64
	Invals           uint64 // I1 Invals fired by context switches
	PageFaults       uint64
	ProxyFaults      uint64 // faults resolved by proxy-mapping handlers
	ProxyUpgrades    uint64 // I3 write-enable upgrades
	PageIns          uint64
	PageOuts         uint64
	Evictions        uint64
	EvictionStallsI4 uint64 // victims skipped because UDMA held the frame
	Pins             uint64
	Unpins           uint64
	Syscalls         uint64
	Segfaults        uint64
	CleanedPages     uint64
	CleanRaceKeeps   uint64 // I3: dirty kept because DMA was in flight
	DMAFailures      uint64 // engine completions that carried an error
	MachineChecks    uint64 // MachineCheck invocations
	ReapDeferrals    uint64 // frames parked at reap because UDMA held them
}

// Kernel is one node's operating system instance.
type Kernel struct {
	clock  *sim.Clock
	costs  *sim.CostModel
	ram    *mem.Physical
	swap   *mem.BackingStore
	mmu    *mmu.MMU
	iobus  *bus.Bus
	engine *dma.Engine
	udma   *core.Controller // nil on a traditional-DMA-only machine
	devmap *device.Map

	cfg   Config
	stats Stats

	procs   []*Proc
	nextPID int
	current *Proc
	rrIndex int

	frames    []frameInfo
	freeList  []uint32
	clockHand int

	bounceBase  uint32 // first bounce frame; bounce frames are contiguous
	bounceCount int

	// engineWaiters are processes blocked until the next DMA engine
	// completion (the traditional-DMA syscall path).
	engineWaiters []*Proc
	// engineNotify is a one-shot slot the traditional-DMA path arms
	// after Start: the next completion's error is delivered through it.
	// Exactly one transfer is in flight at a time, so the completion
	// that fires while the slot is armed is that transfer's.
	engineNotify func(err error)
	// abortEpoch increments on every MachineCheck, letting a process
	// whose in-flight transfer was aborted (no completion will fire)
	// observe the termination instead of sleeping forever.
	abortEpoch uint64

	// runLimit is the current Run deadline; charge yields past it so
	// non-blocking processes cannot wedge the scheduler.
	runLimit sim.Cycles

	// parkedFrames are frames whose owner exited while the UDMA
	// hardware still referenced them (I4 applies to reap exactly as it
	// does to eviction); they drain when the hardware lets go.
	parkedFrames []uint32

	hooks TestHooks

	// idleRearms counts SleepWhile wakes that Run re-armed without
	// resuming the process (host-side; tests read it).
	idleRearms uint64

	tracer *trace.Tracer // nil = tracing off
}

// SetMetrics registers the kernel's counters over its Stats (nil scope
// registers none).
func (k *Kernel) SetMetrics(s *telemetry.Scope) {
	s.CounterFunc("kernel_context_switches", func() uint64 { return k.stats.ContextSwitches })
	s.CounterFunc("kernel_invals", func() uint64 { return k.stats.Invals })
	s.CounterFunc("kernel_page_faults", func() uint64 { return k.stats.PageFaults })
	s.CounterFunc("kernel_proxy_faults", func() uint64 { return k.stats.ProxyFaults })
	s.CounterFunc("kernel_pins", func() uint64 { return k.stats.Pins })
	s.CounterFunc("kernel_unpins", func() uint64 { return k.stats.Unpins })
	s.CounterFunc("kernel_evictions", func() uint64 { return k.stats.Evictions })
	s.CounterFunc("kernel_page_ins", func() uint64 { return k.stats.PageIns })
	s.CounterFunc("kernel_machine_checks", func() uint64 { return k.stats.MachineChecks })
}

type frameInfo struct {
	owner  *Proc
	vpn    uint32
	pinned int
	kernel bool // kernel-owned (bounce buffers); never evicted
	used   bool
	parked bool // owner exited while UDMA referenced the frame
}

// ErrDeadlock is returned by Run when processes are blocked but no
// future event can wake them.
var ErrDeadlock = errors.New("kernel: all processes blocked with no pending events")

// New assembles a kernel. udma may be nil for a machine without the
// UDMA extension (the pure-baseline configuration of experiment E3).
func New(clock *sim.Clock, costs *sim.CostModel, ram *mem.Physical, swap *mem.BackingStore,
	m *mmu.MMU, iobus *bus.Bus, engine *dma.Engine, udma *core.Controller,
	devmap *device.Map, cfg Config) *Kernel {
	if clock == nil || costs == nil || ram == nil || swap == nil || m == nil ||
		iobus == nil || engine == nil || devmap == nil {
		panic("kernel: New requires non-nil dependencies (udma may be nil)")
	}
	if cfg.BounceFrames < 0 || cfg.BounceFrames >= ram.Frames() {
		panic(fmt.Sprintf("kernel: BounceFrames %d out of range", cfg.BounceFrames))
	}
	k := &Kernel{
		clock: clock, costs: costs, ram: ram, swap: swap, mmu: m,
		iobus: iobus, engine: engine, udma: udma, devmap: devmap, cfg: cfg,
		frames:   make([]frameInfo, ram.Frames()),
		runLimit: sim.Forever,
	}
	// Burn swap slot 0 so PTE.SwapSlot==0 can mean "no slot assigned".
	k.swap.Alloc()

	// Reserve bounce frames at the top of RAM: contiguous, pinned,
	// kernel-owned.
	k.bounceCount = cfg.BounceFrames
	k.bounceBase = uint32(ram.Frames() - cfg.BounceFrames)
	for i := 0; i < cfg.BounceFrames; i++ {
		k.frames[k.bounceBase+uint32(i)] = frameInfo{kernel: true, used: true}
	}
	for pfn := uint32(0); pfn < k.bounceBase; pfn++ {
		k.freeList = append(k.freeList, pfn)
	}

	// Wake traditional-DMA waiters on every engine completion; count
	// failed completions so the experiments can see the error rate the
	// kernel observed on its interrupt line.
	engine.OnComplete(func(err error) {
		if err != nil {
			k.stats.DMAFailures++
		}
		k.drainParked()
		if fn := k.engineNotify; fn != nil {
			k.engineNotify = nil
			fn(err)
		}
		waiters := k.engineWaiters
		k.engineWaiters = nil
		for _, p := range waiters {
			k.wake(p)
		}
	})
	return k
}

// MachineCheck is the kernel's response to a memory-system error the
// DMA hardware cannot handle transparently — exactly the situation the
// paper's termination discussion anticipates. It charges the interrupt
// cost, invokes the controller's Terminate (aborting the in-flight
// transfer, discarding every queued request, and failing outstanding
// system tickets with core.ErrTerminated), and wakes any process
// blocked on the engine so it observes its failed ticket instead of
// sleeping forever. It returns how many transfers were discarded.
func (k *Kernel) MachineCheck(reason error) int {
	k.stats.MachineChecks++
	msg := ""
	if reason != nil {
		msg = reason.Error()
	}
	k.tracer.Record(trace.EvMachineCheck, 0, 0, msg)
	k.clock.Advance(k.costs.InterruptEntry)
	n := 0
	if k.udma != nil {
		n = k.udma.Terminate()
	} else if k.engine.Busy() {
		// A machine without the UDMA extension still aborts the raw
		// engine transfer.
		k.engine.Abort()
		n = 1
	}
	// Terminate dropped the controller's references; any frames parked
	// at reap behind those references can go now.
	k.drainParked()
	// The aborted transfer's completion will never fire: bump the epoch
	// so its waiter returns ErrTerminated, and disarm the notify slot so
	// an unrelated later completion cannot be misattributed.
	k.abortEpoch++
	k.engineNotify = nil
	waiters := k.engineWaiters
	k.engineWaiters = nil
	for _, p := range waiters {
		k.wake(p)
	}
	return n
}

// SetTracer attaches an event tracer (nil disables tracing).
func (k *Kernel) SetTracer(t *trace.Tracer) { k.tracer = t }

// Stats returns a copy of the kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// UDMA returns the node's UDMA controller, or nil.
func (k *Kernel) UDMA() *core.Controller { return k.udma }

// FreeFrames returns the number of unallocated frames.
func (k *Kernel) FreeFrames() int { return len(k.freeList) }

// Spawn creates a process running fn and adds it to the run queue. The
// function receives its Proc, whose Load/Store/syscall methods are the
// process's instruction stream.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	k.nextPID++
	p := &Proc{
		pid:    k.nextPID,
		name:   name,
		kernel: k,
		as:     mmu.NewAddressSpace(k.nextPID),
		state:  procReady,
		// User heap starts above the first page, well inside the real
		// memory region.
		heapNext: 0x0001_0000 >> addr.PageShift,
		fn:       fn,
	}
	p.start()
	p.wakeFn = func() { k.wake(p) }
	k.procs = append(k.procs, p)
	return p
}

// Run drives the machine until every process has exited, the simulated
// clock passes limit, or a deadlock is detected. Pass sim.Forever for
// no time limit.
func (k *Kernel) Run(limit sim.Cycles) error {
	k.runLimit = limit
	for {
		if k.clock.Now() > limit {
			return nil
		}
		p := k.nextReady()
		if p == nil {
			if k.AllExited() {
				return nil
			}
			// Everyone is blocked: let simulated time move to the next
			// hardware event (DMA completion, packet arrival, timer).
			at, ok := k.clock.NextEventAt()
			if !ok {
				return ErrDeadlock
			}
			if at > limit {
				return nil
			}
			k.clock.AdvanceTo(at)
			continue
		}
		k.switchTo(p)
		if p.idle != nil && !p.killed && p.idle() {
			// The process woke inside SleepWhile and is still idle: all
			// it would do is sleep again, charging nothing and firing
			// no event on the way, so re-arm its wake here, at the same
			// time and with the same event sequence number, without
			// resuming its coroutine. A killed process always resumes,
			// so it unwinds where it would have.
			k.clock.ScheduleAfter(p.idleFor, p.wakeFn)
			p.state = procBlocked
			k.idleRearms++
			continue
		}
		reason := p.runSlice()
		switch reason {
		case yieldExit:
			k.reap(p)
		case yieldBlock, yieldPreempt:
			// State already recorded by the proc.
		}
	}
}

// Shutdown kills every live process (for tests and harness cleanup so
// no goroutines outlive the simulation).
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		if p.state == procExited {
			continue
		}
		p.killed = true
		if p.state == procBlocked {
			p.state = procReady
		}
	}
	// Drive remaining processes to their kill points.
	for {
		p := k.nextReady()
		if p == nil {
			break
		}
		k.current = p
		if p.runSlice() == yieldExit {
			k.reap(p)
		}
	}
}

// AllExited reports whether every spawned process has exited.
func (k *Kernel) AllExited() bool {
	for _, p := range k.procs {
		if p.state != procExited {
			return false
		}
	}
	return true
}

// nextReady picks the next runnable process round-robin: the first
// ready one from rrIndex to the end, then from the start to rrIndex.
// rrIndex is left just past the pick, wrapped to 0 at the end.
func (k *Kernel) nextReady() *Proc {
	if p := k.readyIn(k.rrIndex, len(k.procs)); p != nil {
		return p
	}
	return k.readyIn(0, k.rrIndex)
}

// readyIn returns the first ready process in procs[from:to] and moves
// rrIndex past it, or returns nil.
func (k *Kernel) readyIn(from, to int) *Proc {
	for i, p := range k.procs[from:to] {
		if p.state == procReady {
			if k.rrIndex = from + i + 1; k.rrIndex == len(k.procs) {
				k.rrIndex = 0
			}
			return p
		}
	}
	return nil
}

// switchTo performs the context switch to p, charging the switch cost
// and firing the UDMA Inval that maintains invariant I1. Resuming the
// same process (it was merely preempted with nobody else runnable) is
// free and fires no Inval — there was no context switch.
func (k *Kernel) switchTo(p *Proc) {
	if k.current == p {
		p.quantum = k.cfg.Quantum
		return
	}
	k.stats.ContextSwitches++
	k.tracer.Record(trace.EvContextSwitch, uint64(p.pid), 0, p.name)
	k.clock.Advance(k.costs.ContextSwitch)
	if k.current != nil {
		// Automatic update: drain the outgoing process's combining
		// buffers so its tail writes do not linger in the board.
		k.current.flushAutoUpdates()
	}
	if k.udma != nil && !k.hooks.SkipI1Inval {
		// I1: "the operating system must invalidate any partially
		// initiated UDMA transfer on every context switch ... with a
		// single STORE instruction."
		k.udma.Inval()
		k.stats.Invals++
	}
	k.current = p
	p.quantum = k.cfg.Quantum
}

func (k *Kernel) reap(p *Proc) {
	// Tear down automatic-update exports: flush the boards and drop
	// the pins so the frames below can be released.
	for i := range p.autoRanges {
		p.autoRanges[i].sink.FlushAutoUpdate()
		for _, pfn := range p.autoRanges[i].pfns {
			k.unpinFrame(pfn)
		}
	}
	p.autoRanges = nil
	// Release every frame and swap slot the process holds. A frame the
	// UDMA hardware still references — a queued request from this
	// process, or an in-flight transfer — must not return to the free
	// list yet (I4 applies to reap exactly as to eviction): it is
	// parked and drained when the hardware completes or terminates.
	p.as.Walk(func(vpn uint32, e *mmu.PTE) bool {
		if e.Present && addr.RegionOf(addr.PAddr(e.PPN<<addr.PageShift)) == addr.RegionMemory {
			if k.frameBusyForRelease(e.PPN) {
				k.parkFrame(e.PPN)
			} else {
				k.releaseFrame(e.PPN)
			}
		}
		if e.SwapSlot != 0 {
			if err := k.swap.Free(e.SwapSlot); err != nil {
				panic(fmt.Sprintf("kernel: reap pid %d: %v", p.pid, err))
			}
		}
		return true
	})
	k.mmu.TLB().FlushASID(p.as.ASID)
	if k.current == p {
		k.current = nil
	}
}

func (k *Kernel) wake(p *Proc) {
	if p.state == procBlocked {
		p.state = procReady
	}
}

// blockCurrentUntilEngineDone registers the current process to be woken
// at the next engine completion. Must be called from process context.
func (k *Kernel) blockOnEngine(p *Proc) {
	k.engineWaiters = append(k.engineWaiters, p)
	p.block()
}

// Kill marks p for termination. The next time the scheduler resumes it
// the process unwinds — deferred cleanups run, frames are released
// (UDMA-referenced ones parked) — and exits; a blocked process becomes
// runnable so the kill takes effect promptly. Killing an exited process
// is a no-op. Must not be called from process context.
func (k *Kernel) Kill(p *Proc) {
	if p.state == procExited {
		return
	}
	p.killed = true
	if p.state == procBlocked {
		p.state = procReady
	}
}

// Procs returns the spawned processes, live and exited, in spawn order
// (external auditors walk their address spaces).
func (k *Kernel) Procs() []*Proc {
	out := make([]*Proc, len(k.procs))
	copy(out, k.procs)
	return out
}

// FrameState is a read-only snapshot of one physical frame's kernel
// bookkeeping, for external auditors.
type FrameState struct {
	Used     bool // allocated or parked; false = on the free list
	Kernel   bool // kernel-owned bounce frame
	Parked   bool // owner exited while UDMA referenced the frame
	Pinned   int
	OwnerPID int // 0 when unowned (free, kernel or parked)
	VPN      uint32
}

// FrameStates snapshots every physical frame's bookkeeping.
func (k *Kernel) FrameStates() []FrameState {
	out := make([]FrameState, len(k.frames))
	for i := range k.frames {
		fi := &k.frames[i]
		out[i] = FrameState{
			Used: fi.used, Kernel: fi.kernel, Parked: fi.parked,
			Pinned: fi.pinned, VPN: fi.vpn,
		}
		if fi.owner != nil {
			out[i].OwnerPID = fi.owner.pid
		}
	}
	return out
}

// frameBusyForRelease reports whether the DMA hardware still references
// pfn, so reap must defer releasing it. Unlike frameHeldByUDMA it also
// peeks the engine registers when a controller is present — the
// kernel's traditional-DMA path can Start the engine directly without
// entering the controller's reference counts — and it never fires the
// DestLoaded-clearing Inval (the latch may belong to a live process
// mid-sequence; I1 handles it at the next switch).
func (k *Kernel) frameBusyForRelease(pfn uint32) bool {
	if k.udma != nil && k.udma.PageInUse(pfn) {
		return true
	}
	return k.engineRegisterNames(pfn)
}

// parkFrame detaches a frame from its (exiting) owner without freeing
// it; drainParked returns it to the free list when the hardware is
// done with it.
func (k *Kernel) parkFrame(pfn uint32) {
	k.frames[pfn] = frameInfo{used: true, parked: true}
	k.parkedFrames = append(k.parkedFrames, pfn)
	k.stats.ReapDeferrals++
}

// drainParked frees parked frames whose hardware references are gone.
// Called on every engine completion and after a Terminate.
func (k *Kernel) drainParked() {
	if len(k.parkedFrames) == 0 {
		return
	}
	keep := k.parkedFrames[:0]
	for _, pfn := range k.parkedFrames {
		if k.frameBusyForRelease(pfn) {
			keep = append(keep, pfn)
		} else {
			k.frames[pfn].parked = false
			k.releaseFrame(pfn)
		}
	}
	k.parkedFrames = keep
}
