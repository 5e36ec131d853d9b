package core

import (
	"errors"
	"fmt"
	"sort"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/dma"
	"shrimp/internal/sim"
	"shrimp/internal/telemetry"
	"shrimp/internal/trace"
)

// ErrTerminated is the error delivered to tickets and the status-word
// error latch when the kernel's Terminate (machine-check path) discards
// a pending or in-flight transfer.
var ErrTerminated = errors.New("core: transfer terminated")

// State is the UDMA state machine state (paper Figure 5).
type State int

const (
	Idle State = iota
	DestLoaded
	Transferring
)

func (s State) String() string {
	switch s {
	case Idle:
		return "Idle"
	case DestLoaded:
		return "DestLoaded"
	case Transferring:
		return "Transferring"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// request is one pending transfer: endpoints already translated to bus
// addresses, count already clamped to page boundaries, base remembered
// for the MATCH flag.
type request struct {
	src, dst addr.PAddr
	count    int
	base     addr.PAddr // physical proxy address of the initiating LOAD
	ticket   *SysTicket // non-nil for system-queue submissions

	// Telemetry timestamps (pure observation; never read by the state
	// machine): when the request was accepted and when the engine
	// actually started it.
	enqueuedAt sim.Cycles
	startedAt  sim.Cycles
}

// SysTicket tracks one system-queue submission to completion. The
// kernel polls Done between engine-completion wakeups.
type SysTicket struct {
	Done bool
	Err  error
}

// Config selects controller variants for the ablation experiments.
type Config struct {
	// QueueDepth is the Section 7 request queue size. Zero gives the
	// basic controller of Sections 3–6: while a transfer is in flight
	// the machine ignores Store events and refuses initiations.
	QueueDepth int
	// SystemQueueDepth enables the paper's two-priority-queue variant:
	// a second queue reserved for the kernel, drained before the user
	// queue. Zero disables it.
	SystemQueueDepth int
}

// Controller is the UDMA hardware: the state machine interpreting the
// two-instruction initiation sequence, physical proxy-address
// translation, and the interface the kernel reads to maintain
// invariant I4. It drives one standard dma.Engine.
//
// The controller is deliberately ignorant of processes: "the UDMA
// device is stateless with respect to a context switch ... The UDMA
// device does not know which user process is running" (Section 6).
// Atomicity of the two-reference sequence is the kernel's job (I1),
// done by firing Inval on every context switch.
type Controller struct {
	engine *dma.Engine
	devmap *device.Map
	clock  *sim.Clock
	cfg    Config

	state State
	// Latched by the Store half of the sequence.
	dest  addr.PAddr
	count int

	// In-flight transfer, for MATCH/remaining and I4.
	inflight    request
	hasInflight bool

	userQ []request
	sysQ  []request

	tracer *trace.Tracer // nil = tracing off
	// initNote is the tracer note ("4096B") of the last initiation
	// size, initNoteCount, so a run of equal-sized initiations formats
	// it once.
	initNote      string
	initNoteCount int

	// pageRefs counts, per physical frame, how many pending or
	// in-flight requests touch it — the "reference-count register" the
	// paper proposes for I4 with queueing. It holds one entry per frame
	// with a nonzero count, in no order: at most two per request, so at
	// most 2 × (1 + QueueDepth + SystemQueueDepth).
	pageRefs []frameRef

	// failedBits is the per-transfer error latch: when a transfer fails
	// after its initiating LOAD already returned success (a completion-
	// time fault, a dequeue-time rejection, a kernel Terminate), the
	// error bits are latched under the transfer's base proxy address. A
	// status poll of that address reports and clears them — the read-to-
	// clear error register the paper's termination discussion implies.
	// A new initiation from the same base drops any stale entry.
	failedBits map[addr.PAddr]device.ErrBits

	stats Stats
	m     ctlMetrics
}

// frameRef is one reference-count register entry.
type frameRef struct {
	pfn uint32
	n   int
}

// ctlMetrics holds the controller's gauge and histograms. Nil
// instruments are free no-ops, matching the nil-tracer idiom, so the
// initiation fast path costs one pointer check per record point when
// metrics are off.
type ctlMetrics struct {
	queueDepth *telemetry.Gauge
	latency    *telemetry.Histogram // enqueue (accepted LOAD) → completion
	queueWait  *telemetry.Histogram // enqueue → engine start
	bytes      *telemetry.Histogram
}

// SetMetrics registers the controller's counters over its Stats and
// attaches its gauge and histograms (nil scope disables them).
// Recording never advances the clock or changes controller decisions:
// a run with metrics enabled is cycle-identical to one without.
func (c *Controller) SetMetrics(s *telemetry.Scope) {
	s.CounterFunc("udma_initiations", func() uint64 { return c.stats.Initiations })
	s.CounterFunc("udma_completions", func() uint64 { return c.stats.Completions })
	s.CounterFunc("udma_failures", func() uint64 { return c.stats.Failures })
	s.CounterFunc("udma_queue_full", func() uint64 { return c.stats.QueueFull })
	c.m = ctlMetrics{
		queueDepth: s.Gauge("udma_queue_depth"),
		latency:    s.Histogram("udma_xfer_latency_cycles"),
		queueWait:  s.Histogram("udma_queue_wait_cycles"),
		bytes:      s.Histogram("udma_xfer_bytes"),
	}
}

// observeQueueDepth publishes the combined queue length after any
// enqueue/dequeue transition.
func (c *Controller) observeQueueDepth() {
	c.m.queueDepth.Set(int64(len(c.userQ) + len(c.sysQ)))
}

// Stats counts controller events for the experiments.
type Stats struct {
	Stores         uint64 // Store events (positive nbytes)
	Loads          uint64 // Load events
	Invals         uint64 // Inval events
	Initiations    uint64 // transfers started or enqueued
	BadLoads       uint64 // WRONG-SPACE rejections
	DeviceErrors   uint64 // device-validation rejections
	QueueFull      uint64 // initiations refused for a full queue
	Busy           uint64 // loads observing a busy basic controller
	Completions    uint64 // engine completions
	Terminations   uint64 // kernel-initiated Terminate calls
	Failures       uint64 // accepted transfers that did not complete
	DequeueRejects uint64 // queued requests the engine rejected at dispatch
	MaxQueueLen    int    // high-water mark of the user queue
}

// New wires a controller onto a DMA engine and device map. It
// registers itself on the engine's completion interrupt to pop queued
// requests.
func New(engine *dma.Engine, devmap *device.Map, clock *sim.Clock, cfg Config) *Controller {
	if engine == nil || devmap == nil || clock == nil {
		panic("core: New requires non-nil engine, devmap and clock")
	}
	if cfg.QueueDepth < 0 || cfg.SystemQueueDepth < 0 {
		panic("core: negative queue depth")
	}
	c := &Controller{
		engine:     engine,
		devmap:     devmap,
		clock:      clock,
		cfg:        cfg,
		pageRefs:   make([]frameRef, 0, 2*(1+cfg.QueueDepth+cfg.SystemQueueDepth)),
		failedBits: make(map[addr.PAddr]device.ErrBits),
	}
	engine.OnComplete(func(err error) { c.onEngineDone(err) })
	return c
}

// SetTracer attaches an event tracer (nil disables tracing).
func (c *Controller) SetTracer(t *trace.Tracer) { c.tracer = t }

// State returns the current state-machine state. With queueing enabled
// the machine reports Transferring whenever work is in flight or
// queued, matching what the status word shows a user.
func (c *Controller) State() State {
	if c.state == DestLoaded {
		return DestLoaded
	}
	if c.busy() {
		return Transferring
	}
	return Idle
}

// Stats returns a copy of the event counters.
func (c *Controller) Stats() Stats { return c.stats }

func (c *Controller) busy() bool {
	return c.engine.Busy() || len(c.userQ) > 0 || len(c.sysQ) > 0
}

// Store is the hardware's reaction to a store of value at proxy
// physical address pa (the STORE half of the initiation sequence, or an
// Inval when value is negative). The paper's Store event latches the
// DESTINATION and COUNT registers.
//
// pa must be in a proxy region; the machine's bus decode guarantees it.
func (c *Controller) Store(pa addr.PAddr, value int32) {
	mustProxy(pa, "Store")
	if value < 0 {
		// Inval event: terminate an incomplete initiation sequence.
		c.stats.Invals++
		c.tracer.Record(trace.EvInval, uint64(pa), 0, "")
		c.state = Idle
		return
	}
	c.stats.Stores++
	c.tracer.Record(trace.EvStore, uint64(pa), uint64(value), "")
	if c.cfg.QueueDepth == 0 && c.busy() {
		// Basic machine: "if no transition is depicted for a given
		// event in a given state, then that event does not cause a
		// state transition" — Store in Transferring is ignored.
		return
	}
	// Idle --Store--> DestLoaded, or DestLoaded --Store--> DestLoaded
	// (overwrites the registers).
	c.dest = pa
	c.count = int(value)
	c.state = DestLoaded
}

// Inval is the kernel-facing spelling of storing a negative value to
// any valid proxy address; the context-switch code calls it (I1).
func (c *Controller) Inval() {
	c.Store(addr.PAddr(addr.MemProxyBase), -1)
}

// Load is the hardware's reaction to a load from proxy physical
// address pa: the LOAD half of the initiation sequence, or a status
// poll. It returns the status word.
func (c *Controller) Load(pa addr.PAddr) Status {
	mustProxy(pa, "Load")
	c.stats.Loads++
	c.tracer.Record(trace.EvLoad, uint64(pa), 0, "")

	if c.state != DestLoaded {
		// Status poll (or a LOAD whose STORE half was lost to an Inval
		// or ignored by a busy basic machine).
		if c.busy() {
			c.stats.Busy++
		}
		return c.pollStatus(pa)
	}

	// BadLoad: source in the same proxy region as the destination asks
	// for mem→mem or dev→dev, which the basic UDMA device rejects.
	if addr.RegionOf(pa) == addr.RegionOf(c.dest) {
		c.stats.BadLoads++
		c.tracer.Record(trace.EvBadLoad, uint64(pa), uint64(c.dest), "")
		c.state = Idle
		return makeStatus(false, c.busy(), false, false, true, 0, 0) |
			c.matchBit(pa)
	}

	req, errBits := c.makeRequest(pa)
	if errBits != 0 {
		c.stats.DeviceErrors++
		c.state = Idle
		return makeStatus(false, c.busy(), false, false, false, 0, errBits)
	}

	// Dispatch: straight to the engine if it is free and nothing is
	// queued ahead; otherwise queue (if allowed and roomy).
	switch {
	case !c.engine.Busy() && len(c.userQ) == 0 && len(c.sysQ) == 0:
		if err := c.engine.Start(req.src, req.dst, req.count); err != nil {
			// The device validated the request but the engine refused it
			// (e.g. a memory endpoint outside installed RAM, which only
			// the engine checks). Surface the error in this LOAD's
			// status word instead of crashing the machine.
			c.stats.DeviceErrors++
			c.tracer.Record(trace.EvTransferFail, uint64(req.src), uint64(req.dst), err.Error())
			c.state = Idle
			return makeStatus(false, c.busy(), false, false, false, 0, errBitsOf(err))
		}
		delete(c.failedBits, req.base)
		req.enqueuedAt = c.clock.Now()
		req.startedAt = req.enqueuedAt
		c.m.queueWait.Observe(0)
		c.inflight = req
		c.hasInflight = true
		c.ref(req)
	case c.cfg.QueueDepth > 0 && len(c.userQ) < c.cfg.QueueDepth:
		delete(c.failedBits, req.base)
		req.enqueuedAt = c.clock.Now()
		c.userQ = append(c.userQ, req)
		if len(c.userQ) > c.stats.MaxQueueLen {
			c.stats.MaxQueueLen = len(c.userQ)
		}
		c.observeQueueDepth()
		c.ref(req)
	case c.cfg.QueueDepth > 0:
		// Queue full: refuse, keep DestLoaded so the user can retry
		// the LOAD alone once the queue drains. REMAINING-BYTES reports
		// the actual outstanding work (engine remaining plus queued
		// bytes), the same figure a status poll computes — not the raw
		// latched count of the refused request.
		c.stats.QueueFull++
		return makeStatus(false, true, false, c.matchAny(pa), false, c.outstandingBytes(), device.ErrQueueFull)
	default:
		// Basic machine busy: the Store half was accepted while idle
		// but another initiation won; report busy, drop the latch.
		c.stats.Busy++
		c.state = Idle
		return makeStatus(false, true, false, c.matchAny(pa), false, 0, 0)
	}

	c.stats.Initiations++
	if c.tracer != nil {
		if c.initNote == "" || c.initNoteCount != req.count {
			c.initNote, c.initNoteCount = fmt.Sprintf("%dB", req.count), req.count
		}
		c.tracer.Record(trace.EvInitiation, uint64(req.src), uint64(req.dst), c.initNote)
	}
	c.state = Idle // latch consumed; machine-level state is now derived
	return makeStatus(true, true, false, false, false, req.count, 0)
}

// PollWouldMatch reports whether a Load of pa now would be a pure
// status poll that sees MATCH: no latched STORE half for it to consume,
// and a transfer based at pa still pending, so it consumes no latched
// error bits either. Until the controller's state changes, every such
// Load has the same effect.
func (c *Controller) PollWouldMatch(pa addr.PAddr) bool {
	return c.state != DestLoaded && c.matchAny(pa)
}

// RepeatPolls accounts n Loads of pa that PollWouldMatch allowed, the
// first now and then one every step cycles, exactly as the n Loads
// would: their counters and their trace events. The caller advances
// the clock, and must fire no event before the last of them.
func (c *Controller) RepeatPolls(pa addr.PAddr, n uint64, step sim.Cycles) {
	c.stats.Loads += n
	if c.busy() {
		c.stats.Busy += n
	}
	c.tracer.RecordEvery(trace.EvLoad, uint64(pa), 0, c.clock.Now(), step, n)
}

// pollStatus builds the status word for a LOAD that does not initiate.
// If a transfer based at pa failed after its initiation succeeded, the
// latched error bits are reported and cleared.
func (c *Controller) pollStatus(pa addr.PAddr) Status {
	busy := c.busy()
	remaining := 0
	if busy {
		remaining = c.outstandingBytes()
	}
	match := c.matchAny(pa)
	var bits device.ErrBits
	if !match {
		// The latch holds until no same-base transfer remains matching,
		// so a poll cannot consume the error while the caller is still
		// (correctly) waiting on MATCH for other in-flight work.
		if b, ok := c.failedBits[pa]; ok {
			bits = b
			delete(c.failedBits, pa)
		}
	}
	return makeStatus(false, busy, !busy && c.state == Idle, match, false, remaining, bits)
}

// outstandingBytes is the REMAINING-BYTES a poll reports: what is left
// of the in-flight transfer plus every queued request.
func (c *Controller) outstandingBytes() int {
	remaining := c.engine.Remaining()
	for _, r := range c.userQ {
		remaining += r.count
	}
	for _, r := range c.sysQ {
		remaining += r.count
	}
	return remaining
}

func (c *Controller) matchBit(pa addr.PAddr) Status {
	if c.matchAny(pa) {
		return statusMatch
	}
	return 0
}

// matchAny implements the MATCH flag: the referenced address equals the
// base address of the in-progress transfer — or, with queueing, of any
// queued transfer (waiting for the last transfer of a multi-page send
// must keep matching until that page actually moves).
func (c *Controller) matchAny(pa addr.PAddr) bool {
	if c.hasInflight && c.inflight.base == pa {
		return true
	}
	for _, r := range c.userQ {
		if r.base == pa {
			return true
		}
	}
	for _, r := range c.sysQ {
		if r.base == pa {
			return true
		}
	}
	return false
}

// makeRequest translates the latched destination and the loaded source
// into bus addresses, clamps the count so the transfer crosses no page
// boundary in either space (Section 4: "a basic UDMA transfer cannot
// cross a page boundary"), and validates against the device.
func (c *Controller) makeRequest(srcProxy addr.PAddr) (request, device.ErrBits) {
	src := translateProxy(srcProxy)
	dst := translateProxy(c.dest)

	count := c.count
	if room := addr.PageSize - int(addr.PPageOff(src)); count > room {
		count = room
	}
	if room := addr.PageSize - int(addr.PPageOff(dst)); count > room {
		count = room
	}
	if count <= 0 {
		// A zero-byte request is meaningless; hardware reports bounds.
		return request{}, device.ErrBounds
	}

	// Validate the device endpoint (exactly one endpoint is a device,
	// or the engine would have nothing to do — BadLoad already filtered
	// same-region pairs).
	for _, end := range []struct {
		a        addr.PAddr
		toDevice bool
	}{{dst, true}, {src, false}} {
		if addr.RegionOf(end.a) != addr.RegionDevProxy {
			continue
		}
		dev, da, ok := c.devmap.Resolve(end.a)
		if !ok {
			return request{}, device.ErrBounds
		}
		if bits := dev.CheckTransfer(da, count, end.toDevice); bits != 0 {
			return request{}, bits
		}
	}
	return request{src: src, dst: dst, count: count, base: srcProxy}, 0
}

// EnqueueSystem lets the kernel submit a transfer on the reserved
// high-priority queue (the two-queue variant of Section 7). It returns
// a ticket the kernel polls for completion, or nil if the system queue
// is full or the variant is disabled.
func (c *Controller) EnqueueSystem(src, dst addr.PAddr, count int) *SysTicket {
	if c.cfg.SystemQueueDepth == 0 || len(c.sysQ) >= c.cfg.SystemQueueDepth {
		return nil
	}
	req := request{src: src, dst: dst, count: count, base: 0, ticket: &SysTicket{},
		enqueuedAt: c.clock.Now()}
	if !c.engine.Busy() && len(c.sysQ) == 0 {
		if err := c.engine.Start(src, dst, count); err != nil {
			// An invalid request would never become startable: fail the
			// ticket immediately rather than making the kernel wait for
			// a completion that cannot come.
			c.failTransfer(req, err)
			return req.ticket
		}
		c.stats.Initiations++
		c.m.queueWait.Observe(0)
		req.startedAt = req.enqueuedAt
		c.inflight = req
		c.hasInflight = true
		c.ref(req)
		return req.ticket
	}
	c.stats.Initiations++
	c.sysQ = append(c.sysQ, req)
	c.observeQueueDepth()
	c.ref(req)
	return req.ticket
}

// SystemQueueAvailable reports whether the controller has the reserved
// kernel queue (the kernel's DMA path checks this once at boot).
func (c *Controller) SystemQueueAvailable() bool {
	return c.cfg.SystemQueueDepth > 0
}

// onEngineDone pops the next request when a transfer finishes
// (system queue first), returning the machine to Idle when drained. A
// failed transfer is recorded — trace event, stats, error latch,
// ticket — but still frees the engine for the next request.
func (c *Controller) onEngineDone(err error) {
	c.stats.Completions++
	if c.hasInflight {
		if err != nil {
			c.failTransfer(c.inflight, err)
		} else {
			c.tracer.Span(trace.EvTransferDone, c.inflight.enqueuedAt,
				uint64(c.inflight.src), uint64(c.inflight.dst), "")
			if t := c.inflight.ticket; t != nil {
				t.Done = true
			}
		}
		c.m.latency.Observe(uint64(c.clock.Now() - c.inflight.enqueuedAt))
		c.m.bytes.Observe(uint64(c.inflight.count))
		c.unref(c.inflight)
		c.hasInflight = false
	}
	c.startNext()
}

// startNext pops queued requests (system queue first) until one starts
// or the queues drain. A request the engine rejects at dispatch time —
// validated at enqueue, but conditions changed while it waited — is
// failed like a completed-with-error transfer and the next one runs;
// one bad request must not wedge or crash the machine.
func (c *Controller) startNext() {
	for {
		var next request
		switch {
		case len(c.sysQ) > 0:
			next = popFront(&c.sysQ)
		case len(c.userQ) > 0:
			next = popFront(&c.userQ)
		default:
			return
		}
		c.observeQueueDepth()
		if startErr := c.engine.Start(next.src, next.dst, next.count); startErr != nil {
			c.stats.DequeueRejects++
			c.failTransfer(next, startErr)
			c.unref(next)
			continue
		}
		next.startedAt = c.clock.Now()
		c.m.queueWait.Observe(uint64(next.startedAt - next.enqueuedAt))
		c.inflight = next
		c.hasInflight = true
		return
	}
}

// popFront removes and returns the head of a queue, copying the rest
// down so the backing array is reused rather than left behind.
func popFront(q *[]request) request {
	r := (*q)[0]
	n := copy(*q, (*q)[1:])
	(*q)[n] = request{}
	*q = (*q)[:n]
	return r
}

// failTransfer records a transfer that was accepted but did not
// complete: counters, the trace (an interval from enqueue to failure),
// the user-visible error latch, and the kernel's ticket.
func (c *Controller) failTransfer(r request, err error) {
	c.stats.Failures++
	c.tracer.Span(trace.EvTransferFail, r.enqueuedAt, uint64(r.src), uint64(r.dst), err.Error())
	if r.base != 0 {
		c.failedBits[r.base] = errBitsOf(err)
	}
	if t := r.ticket; t != nil {
		t.Done = true
		t.Err = err
	}
}

// errBitsOf maps a transfer error onto the device-specific bits of the
// status word: device rejections keep the bits the device reported,
// everything else (bus errors, terminations) reports ErrTransferFault.
func errBitsOf(err error) device.ErrBits {
	var te *dma.TransferError
	if errors.As(err, &te) && te.Bits != 0 {
		return te.Bits
	}
	return device.ErrTransferFault
}

// Terminate aborts the in-flight transfer (if any) and discards every
// queued request, returning the machine to Idle. The paper notes the
// basic design lacks this but that "it is not hard to imagine adding
// one. This could be useful for dealing with memory system errors that
// the DMA hardware cannot handle transparently." The kernel invokes it
// from its machine-check path; it is not reachable from user proxy
// references. It returns how many transfers (in flight + queued) were
// discarded.
func (c *Controller) Terminate() int {
	n := 0
	if c.engine.Busy() {
		c.engine.Abort()
		n++
	}
	// Abort suppresses the completion interrupt, so release the
	// in-flight refcounts (and fail any ticket / latch the error for a
	// polling user) here.
	if c.hasInflight {
		c.unref(c.inflight)
		c.failTransfer(c.inflight, ErrTerminated)
		c.hasInflight = false
	}
	for _, r := range c.userQ {
		c.unref(r)
		c.failTransfer(r, ErrTerminated)
		n++
	}
	c.userQ = c.userQ[:0]
	for _, r := range c.sysQ {
		c.unref(r)
		c.failTransfer(r, ErrTerminated)
		n++
	}
	c.sysQ = c.sysQ[:0]
	c.observeQueueDepth()
	c.state = Idle
	c.stats.Terminations++
	c.tracer.Record(trace.EvTerminate, uint64(n), 0, "")
	return n
}

// --- invariant I4 support -------------------------------------------------

// PageInUse is the kernel's associative query: does any in-flight or
// queued transfer touch physical memory frame pfn? The kernel must not
// remap a frame while this is true (invariant I4).
func (c *Controller) PageInUse(pfn uint32) bool {
	return c.refIndex(pfn) >= 0
}

// DestLoadedFrame returns the physical frame latched in the DESTINATION
// register while in the DestLoaded state, and whether the latch is
// occupied. The kernel may Inval to clear it (Section 6, I4: "If the
// hardware is in the DestLoaded state, the kernel may also cause an
// Inval event in order to clear the DESTINATION register").
func (c *Controller) DestLoadedFrame() (pfn uint32, ok bool) {
	if c.state != DestLoaded {
		return 0, false
	}
	d := translateProxy(c.dest)
	if addr.RegionOf(d) != addr.RegionMemory {
		return 0, false
	}
	return addr.PFN(d), true
}

// ReferencedFrames returns every physical memory frame currently named
// by the in-flight transfer or a queued request, in ascending order —
// the full I4 audit surface, where PageInUse answers for one frame.
func (c *Controller) ReferencedFrames() []uint32 {
	out := make([]uint32, 0, len(c.pageRefs))
	for _, r := range c.pageRefs {
		out = append(out, r.pfn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AuditRefCounts recomputes the expected per-frame reference counts
// from the in-flight request and both queues and compares them with
// the live register, returning an error on the first mismatch.
// External consistency checkers call it; the hardware never does.
func (c *Controller) AuditRefCounts() error {
	want := make(map[uint32]int)
	add := func(r request) {
		for _, a := range []addr.PAddr{r.src, r.dst} {
			if addr.RegionOf(a) == addr.RegionMemory {
				want[addr.PFN(a)]++
			}
		}
	}
	if c.hasInflight {
		add(c.inflight)
	}
	for _, r := range c.sysQ {
		add(r)
	}
	for _, r := range c.userQ {
		add(r)
	}
	for pfn, n := range want {
		if got := c.refCount(pfn); got != n {
			return fmt.Errorf("core: frame %d refcount %d, want %d", pfn, got, n)
		}
	}
	for _, r := range c.pageRefs {
		if want[r.pfn] != r.n {
			return fmt.Errorf("core: frame %d refcount %d, want %d", r.pfn, r.n, want[r.pfn])
		}
	}
	return nil
}

// refIndex returns the register entry of frame pfn, or -1.
func (c *Controller) refIndex(pfn uint32) int {
	for i, r := range c.pageRefs {
		if r.pfn == pfn {
			return i
		}
	}
	return -1
}

// refCount returns frame pfn's reference count.
func (c *Controller) refCount(pfn uint32) int {
	if i := c.refIndex(pfn); i >= 0 {
		return c.pageRefs[i].n
	}
	return 0
}

func (c *Controller) ref(r request) {
	for _, a := range [2]addr.PAddr{r.src, r.dst} {
		if addr.RegionOf(a) != addr.RegionMemory {
			continue
		}
		pfn := addr.PFN(a)
		if i := c.refIndex(pfn); i >= 0 {
			c.pageRefs[i].n++
		} else {
			c.pageRefs = append(c.pageRefs, frameRef{pfn: pfn, n: 1})
		}
	}
}

func (c *Controller) unref(r request) {
	for _, a := range [2]addr.PAddr{r.src, r.dst} {
		if addr.RegionOf(a) != addr.RegionMemory {
			continue
		}
		pfn := addr.PFN(a)
		i := c.refIndex(pfn)
		if i < 0 {
			panic(fmt.Sprintf("core: page refcount underflow on frame %d", pfn))
		}
		if c.pageRefs[i].n--; c.pageRefs[i].n == 0 {
			last := len(c.pageRefs) - 1
			c.pageRefs[i] = c.pageRefs[last]
			c.pageRefs = c.pageRefs[:last]
		}
	}
}

// translateProxy applies PROXY⁻¹ to memory-proxy addresses and passes
// device-proxy addresses through (they are the device's bus addresses).
func translateProxy(pa addr.PAddr) addr.PAddr {
	switch addr.RegionOf(pa) {
	case addr.RegionMemProxy:
		return addr.Unproxy(pa)
	case addr.RegionDevProxy:
		return pa
	default:
		panic(fmt.Sprintf("core: translateProxy of non-proxy address %#x", uint32(pa)))
	}
}

func mustProxy(pa addr.PAddr, op string) {
	if !addr.RegionOf(pa).IsProxy() {
		panic(fmt.Sprintf("core: %s routed non-proxy address %#x to UDMA", op, uint32(pa)))
	}
}
