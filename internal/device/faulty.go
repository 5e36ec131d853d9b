package device

import (
	"errors"

	"shrimp/internal/sim"
)

// ErrInjected is the error a Faulty device returns when a scheduled
// fault fires.
var ErrInjected = errors.New("device: injected fault")

// Faulty wraps another device and injects failures for testing the
// error paths: validation rejections (CheckTransfer bits) and
// completion-time failures (Write/Read errors, which surface as a
// failed transfer on the engine's completion interrupt — the "memory
// system errors" the paper's termination discussion worries about).
type Faulty struct {
	Inner Device

	// RejectNext makes the next n CheckTransfer calls report RejectBits.
	RejectNext int
	// RejectBits is the validation failure to report (default
	// ErrBounds if zero while RejectNext > 0).
	RejectBits ErrBits
	// FailNext makes the next n Write/Read calls fail at completion.
	FailNext int

	// Rate-based injection (see InjectRates). Counter-based injection
	// above takes precedence when armed.
	rng     *sim.RNG
	rejectP float64
	failP   float64

	rejected uint64
	failed   uint64
}

// NewFaulty wraps a device.
func NewFaulty(inner Device) *Faulty { return &Faulty{Inner: inner} }

// InjectRates arms probabilistic fault injection driven by a seeded
// deterministic RNG: each CheckTransfer is rejected with probability
// rejectP and each completion-time Write/Read fails with probability
// failP. A nil rng disarms rate-based injection. The one-shot counters
// (RejectNext/FailNext) still take precedence when set, so tests can
// pin a specific fault on top of a background rate.
func (f *Faulty) InjectRates(rng *sim.RNG, rejectP, failP float64) {
	f.rng, f.rejectP, f.failP = rng, rejectP, failP
}

// Name implements Device.
func (f *Faulty) Name() string { return f.Inner.Name() + "+faulty" }

// Pages implements Device.
func (f *Faulty) Pages() uint32 { return f.Inner.Pages() }

// CheckTransfer implements Device.
func (f *Faulty) CheckTransfer(da DevAddr, n int, toDevice bool) ErrBits {
	if f.inject(&f.RejectNext, f.rejectP, &f.rejected) {
		if f.RejectBits != 0 {
			return f.RejectBits
		}
		return ErrBounds
	}
	return f.Inner.CheckTransfer(da, n, toDevice)
}

// TransferLatency implements Device.
func (f *Faulty) TransferLatency(da DevAddr, n int) sim.Cycles {
	return f.Inner.TransferLatency(da, n)
}

// Write implements Device.
func (f *Faulty) Write(da DevAddr, data []byte, now sim.Cycles) error {
	if f.injectFail() {
		return ErrInjected
	}
	return f.Inner.Write(da, data, now)
}

// Read implements Device.
func (f *Faulty) Read(da DevAddr, n int, now sim.Cycles) ([]byte, error) {
	if f.injectFail() {
		return nil, ErrInjected
	}
	return f.Inner.Read(da, n, now)
}

func (f *Faulty) injectFail() bool { return f.inject(&f.FailNext, f.failP, &f.failed) }

// inject decides one fault channel: a pending one-shot (*next) fires
// first, then the rate draw at probability p; a fault bumps *fired.
func (f *Faulty) inject(next *int, p float64, fired *uint64) bool {
	switch {
	case *next > 0:
		*next--
	case f.rng != nil && p > 0 && f.rng.Float64() < p:
	default:
		return false
	}
	*fired++
	return true
}

// Injected returns how many rejections and completion failures fired.
func (f *Faulty) Injected() (rejected, failed uint64) { return f.rejected, f.failed }

// PIOWindow implements device.PIODevice by pass-through, so wrapping a
// device that also exposes a programmed-I/O window (the NIC's FIFO
// baseline) stays transparent. Fault injection targets DMA transfers
// only; PIO words are CPU stores and do not cross the DMA error paths.
func (f *Faulty) PIOWindow() (first, count uint32, ok bool) {
	if p, isPIO := f.Inner.(PIODevice); isPIO {
		return p.PIOWindow()
	}
	return 0, 0, false
}

// PIOStore implements device.PIODevice. Only reachable when PIOWindow
// reported a window, which implies Inner is a PIODevice.
func (f *Faulty) PIOStore(da DevAddr, v uint32) {
	f.Inner.(PIODevice).PIOStore(da, v)
}

// PIOLoad implements device.PIODevice.
func (f *Faulty) PIOLoad(da DevAddr) uint32 {
	return f.Inner.(PIODevice).PIOLoad(da)
}

var (
	_ Device    = (*Faulty)(nil)
	_ PIODevice = (*Faulty)(nil)
)
