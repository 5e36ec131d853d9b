// Package udmalib is the user-level library layered over the raw UDMA
// two-instruction sequence — the code path whose cost the paper
// measures at 2.8 µs per initiation ("the time to perform the
// two-instruction initiation sequence and check data alignment with
// regard to page boundaries").
//
// Like the SHRIMP implementation, Send "optimistically initiates
// transfers without regard for page boundaries, since they are enforced
// by the hardware. An additional transfer may be required if a page
// boundary is crossed": the library asks for the full remaining count,
// reads back how much the hardware accepted (the REMAINING-BYTES field
// of the initiating LOAD), and continues from there. Busy or
// context-switch-invalidated initiations are retried, which is the
// paper's recovery protocol for invariant I1.
package udmalib

import (
	"errors"
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/core"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
)

// The library's CPU work per operation, calibrated so a one-page
// initiation costs ≈2.8 µs on the SHRIMP1996 machine (two 1 µs uncached
// references plus this ALU work).
const (
	// setupCycles is charged once per Send/Recv call: argument
	// marshaling, proxy-address computation, entry checks (~5.3 µs at
	// 60 MHz).
	setupCycles sim.Cycles = 320
	// CheckCycles is charged per initiation attempt: the alignment and
	// page-boundary bookkeeping. The initiation path totals
	// ≈ 2×60+48 = 168 cycles = 2.8 µs.
	CheckCycles sim.Cycles = 48
	// pollGapCycles is extra work per completion-poll iteration beyond
	// the status LOAD itself.
	pollGapCycles sim.Cycles = 4
)

// Stats counts library-level events.
type Stats struct {
	Sends       uint64
	Recvs       uint64
	Initiations uint64
	Retries     uint64
	Polls       uint64
	SplitPages  uint64 // extra transfers due to page-boundary crossings
	Failures    uint64 // transfers observed to fail (status error bits)
	Backoffs    uint64 // SendRetry backoff waits
}

// Dev is a process's handle to a mapped UDMA device.
type Dev struct {
	p    *kernel.Proc
	base addr.VAddr // virtual base of the device-proxy window

	stats Stats
}

// Open maps the device into the process (one MapDevice syscall) and
// returns a handle.
func Open(p *kernel.Proc, dev device.Device, writable bool) (*Dev, error) {
	base, err := p.MapDevice(dev, writable)
	if err != nil {
		return nil, err
	}
	return &Dev{p: p, base: base}, nil
}

// Base returns the virtual address of the device-proxy window.
func (d *Dev) Base() addr.VAddr { return d.base }

// Stats returns a copy of the counters.
func (d *Dev) Stats() Stats { return d.stats }

// HardError is a non-retryable initiation failure surfaced to the
// caller with the raw status word.
type HardError struct {
	Status core.Status
	Op     string
}

func (e *HardError) Error() string {
	return fmt.Sprintf("udmalib: %s failed: %v", e.Op, e.Status)
}

// Send transfers n bytes from process memory at va to device offset
// devOff, splitting at page boundaries and waiting for each transfer to
// complete before starting the next (the basic, queue-less machine
// accepts one at a time). It returns when the last transfer has
// completed.
func (d *Dev) Send(va addr.VAddr, devOff uint32, n int) error {
	return d.transfer(va, devOff, n, true, true)
}

// SendAsync is Send without the final completion wait: it returns as
// soon as the last transfer has been *initiated*. Use Wait to poll.
// For multi-page messages every transfer but the last is still waited
// on — the basic machine cannot overlap them.
func (d *Dev) SendAsync(va addr.VAddr, devOff uint32, n int) error {
	return d.transfer(va, devOff, n, true, false)
}

// Recv transfers n bytes from device offset devOff into process memory
// at va (devices that support device→memory UDMA only).
func (d *Dev) Recv(va addr.VAddr, devOff uint32, n int) error {
	return d.transfer(va, devOff, n, false, true)
}

// RetryPolicy bounds SendRetry: at most MaxAttempts total attempts,
// with an exponential backoff (Backoff, 2·Backoff, 4·Backoff, …
// simulated cycles of CPU delay) between them.
type RetryPolicy struct {
	MaxAttempts int
	Backoff     sim.Cycles
}

// DefaultRetryPolicy retries a handful of times starting from a short
// backoff — enough to ride out transient device faults without hiding a
// persistently broken endpoint.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, Backoff: 256}
}

// RetryExhaustedError reports that SendRetry gave up: every attempt
// failed with a hard (non-retryable) transfer error.
type RetryExhaustedError struct {
	Attempts int
	Last     error // the final attempt's HardError
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("udmalib: transfer still failing after %d attempts: %v", e.Attempts, e.Last)
}

// Unwrap exposes the last attempt's error for errors.Is/As.
func (e *RetryExhaustedError) Unwrap() error { return e.Last }

// SendRetry is Send with bounded recovery from per-transfer hardware
// failures: when a transfer is rejected or fails mid-flight (a
// HardError carrying the status word's error bits), the library backs
// off for an exponentially growing number of simulated cycles and
// re-sends the message, up to the policy's attempt budget. The resend
// restarts the whole message — UDMA transfers are idempotent page
// writes, so re-delivering already-arrived pages is safe. Errors that
// are not transfer failures (segfaults, bad arguments) are returned
// immediately.
func (d *Dev) SendRetry(va addr.VAddr, devOff uint32, n int, pol RetryPolicy) error {
	if pol.MaxAttempts <= 0 {
		pol.MaxAttempts = 1
	}
	backoff := pol.Backoff
	var last error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		err := d.Send(va, devOff, n)
		if err == nil {
			return nil
		}
		var hard *HardError
		if !errors.As(err, &hard) {
			return err
		}
		last = err
		if attempt+1 < pol.MaxAttempts && backoff > 0 {
			d.stats.Backoffs++
			d.p.Compute(backoff)
			backoff *= 2
		}
	}
	return &RetryExhaustedError{Attempts: pol.MaxAttempts, Last: last}
}

// QueuedSend initiates every page of the message back-to-back, relying
// on the hardware request queue of Section 7 ("queueing allows a
// user-level process to start multi-page transfers with only two
// instructions per page"), then waits once for the final transfer.
// On a queue-full status it re-issues the pending LOAD until the queue
// drains (the STORE half stays latched).
func (d *Dev) QueuedSend(va addr.VAddr, devOff uint32, n int) error {
	return d.SendGather([]Segment{{va, devOff, n}})
}

// Segment is one piece of a gather/scatter transfer: N bytes from
// process memory at VA to device offset DevOff.
type Segment struct {
	VA     addr.VAddr
	DevOff uint32
	N      int
}

// SendGather queues a whole list of segments back-to-back through the
// hardware request queue — Section 7's gather-scatter: "Queueing has
// two additional advantages. First, it makes it easy to do
// gather-scatter transfers." The per-call setup is paid once; each
// segment costs two references (plus splits at page boundaries); the
// call returns when the final segment completes.
func (d *Dev) SendGather(segs []Segment) error {
	if len(segs) == 0 {
		return nil
	}
	d.stats.Sends++
	d.p.Compute(setupCycles)
	var lastBase addr.VAddr
	for _, seg := range segs {
		va, devOff, n := seg.VA, seg.DevOff, seg.N
		if n <= 0 {
			return fmt.Errorf("udmalib: gather segment of %d bytes", n)
		}
		for n > 0 {
			d.p.Compute(CheckCycles)
			srcProxy := addr.VProxy(va)
			st, err := d.initiateQueued(d.base+addr.VAddr(devOff), srcProxy, n)
			if err != nil {
				return err
			}
			accepted := st.Remaining()
			if accepted <= 0 || accepted > n {
				return fmt.Errorf("udmalib: hardware accepted %d of %d bytes", accepted, n)
			}
			if accepted < n {
				d.stats.SplitPages++
			}
			lastBase = srcProxy
			va += addr.VAddr(accepted)
			devOff += uint32(accepted)
			n -= accepted
		}
	}
	if lastBase != 0 {
		return d.Wait(lastBase)
	}
	return nil
}

// initiateQueued runs the two-instruction sequence against a queued
// controller, re-issuing the LOAD alone on queue-full and redoing both
// halves after an Inval.
func (d *Dev) initiateQueued(destVA, srcVA addr.VAddr, n int) (core.Status, error) {
	st, err := d.initiateOnce(destVA, srcVA, n)
	if err != nil {
		return 0, err
	}
	for !st.Initiated() {
		if st.DeviceErr() == device.ErrQueueFull {
			d.stats.Retries++
			v, lerr := d.p.Load(srcVA)
			if lerr != nil {
				return 0, lerr
			}
			st = core.Status(v)
			continue
		}
		if st.Failed() {
			d.stats.Failures++
			return st, &HardError{Status: st, Op: "queued initiate"}
		}
		d.stats.Retries++
		st, err = d.initiateOnce(destVA, srcVA, n)
		if err != nil {
			return 0, err
		}
	}
	return st, nil
}

// Wait polls the status word at the given proxy virtual address until
// no transfer based there remains in flight — the paper's completion
// idiom: "the user process should repeat the LOAD instruction that it
// used to start the transfer." A transfer that was accepted but later
// failed (completion fault, dequeue rejection, kernel Terminate)
// surfaces here: the poll that observes the cleared MATCH flag carries
// the controller's latched error bits, and Wait returns a HardError.
func (d *Dev) Wait(proxyVA addr.VAddr) error {
	for {
		d.stats.Polls++
		v, err := d.p.Load(proxyVA)
		if err != nil {
			return err
		}
		st := core.Status(v)
		if !st.Match() {
			if st.DeviceErr() != 0 {
				d.stats.Failures++
				return &HardError{Status: st, Op: "wait"}
			}
			return nil
		}
		d.p.Compute(pollGapCycles)
	}
}

// transfer is the common Send/Recv path.
func (d *Dev) transfer(va addr.VAddr, devOff uint32, n int, toDevice, waitLast bool) error {
	if n <= 0 {
		return fmt.Errorf("udmalib: transfer of %d bytes", n)
	}
	if toDevice {
		d.stats.Sends++
	} else {
		d.stats.Recvs++
	}
	d.p.Compute(setupCycles)

	first := true
	for n > 0 {
		// Alignment/page-boundary bookkeeping: part of the measured
		// 2.8 µs initiation path.
		d.p.Compute(CheckCycles)
		if !first {
			d.stats.SplitPages++
		}

		var destVA, srcVA addr.VAddr
		if toDevice {
			destVA = d.base + addr.VAddr(devOff)
			srcVA = addr.VProxy(va)
		} else {
			destVA = addr.VProxy(va)
			srcVA = d.base + addr.VAddr(devOff)
		}

		st, err := d.initiate(destVA, srcVA, n)
		if err != nil {
			return err
		}
		accepted := st.Remaining()
		if accepted <= 0 || accepted > n {
			return fmt.Errorf("udmalib: hardware accepted %d of %d bytes", accepted, n)
		}
		va += addr.VAddr(accepted)
		devOff += uint32(accepted)
		n -= accepted
		first = false

		if n > 0 || waitLast {
			if err := d.Wait(srcVA); err != nil {
				return err
			}
		}
	}
	return nil
}

// initiate runs the two-instruction sequence with the retry protocol.
func (d *Dev) initiate(destVA, srcVA addr.VAddr, n int) (core.Status, error) {
	for {
		st, err := d.initiateOnce(destVA, srcVA, n)
		if err != nil {
			return 0, err
		}
		if st.Initiated() {
			return st, nil
		}
		if st.Failed() {
			d.stats.Failures++
			return st, &HardError{Status: st, Op: "initiate"}
		}
		// Busy or invalidated: "the user process can deduce what
		// happened and re-try its operation."
		d.stats.Retries++
		d.p.Compute(pollGapCycles)
	}
}

func (d *Dev) initiateOnce(destVA, srcVA addr.VAddr, n int) (core.Status, error) {
	d.stats.Initiations++
	if err := d.p.Store(destVA, uint32(n)); err != nil {
		return 0, err
	}
	v, err := d.p.Load(srcVA)
	if err != nil {
		return 0, err
	}
	return core.Status(v), nil
}
