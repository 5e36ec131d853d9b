//go:build go1.23

package kernel

// The process coroutine. iter.Pull needs a go1.23 toolchain but no
// language feature of it; the build constraint above sets this one
// file's language version, so go.mod stays at go 1.22 (raising it would
// make the bench module, which declares go 1.22, demand a go mod tidy).
import "iter"

// start creates the process's coroutine. Nothing runs until the
// scheduler's first runSlice.
func (p *Proc) start() {
	p.next, _ = iter.Pull(p.main)
}

// main is the coroutine body, run by iter.Pull on a stack of its own.
// A kill unwinds it with killedPanic, which ends here; any other panic
// passes through iter.Pull to the goroutine that called next.
func (p *Proc) main(yield func(yieldReason) bool) {
	p.yield = yield
	defer func() {
		p.state = procExited
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); !ok {
				panic(r)
			}
		}
	}()
	p.state = procRunning
	p.fn(p)
}

// runSlice resumes the process and runs it until it yields. Called by
// the scheduler only, from whichever goroutine drives the kernel.
func (p *Proc) runSlice() yieldReason {
	p.state = procRunning
	if reason, ok := p.next(); ok {
		return reason
	}
	return yieldExit
}

// doYield parks the process with the given reason and state, returning
// when the scheduler resumes it. The process's stop func is never
// called, so yield always reports true.
func (p *Proc) doYield(reason yieldReason, state procState) {
	p.state = state
	p.yield(reason)
	p.state = procRunning
	if p.killed {
		panic(killedPanic{})
	}
}
