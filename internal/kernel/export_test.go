package kernel

import "shrimp/internal/sim"

// Quantum returns what is left of the process's time slice.
func (p *Proc) Quantum() sim.Cycles { return p.quantum }

// AsKernel runs fn as kernel code of p, as a syscall body runs: not
// preemptible.
func (p *Proc) AsKernel(fn func()) {
	p.inKernel++
	defer func() { p.inKernel-- }()
	fn()
}

// IdleRearms returns how many SleepWhile wakes Run re-armed without
// resuming the process.
func (k *Kernel) IdleRearms() uint64 { return k.idleRearms }

// Blocked reports whether the process is blocked in the kernel.
func (p *Proc) Blocked() bool { return p.state == procBlocked }
