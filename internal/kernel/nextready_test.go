package kernel

import (
	"testing"

	"shrimp/internal/sim"
)

// moduloNextReady is the round-robin pick written as one modulo scan:
// the n processes from rrIndex on, wrapping, with rrIndex left just
// past the pick.
func moduloNextReady(k *Kernel) *Proc {
	n := len(k.procs)
	for i := 0; i < n; i++ {
		p := k.procs[(k.rrIndex+i)%n]
		if p.state == procReady {
			k.rrIndex = (k.rrIndex + i + 1) % n
			return p
		}
	}
	return nil
}

// TestNextReadyMatchesModuloScan: nextReady picks the same process and
// leaves the same rrIndex as the modulo scan, over random ready sets
// and rrIndex values, and as processes are added between picks.
func TestNextReadyMatchesModuloScan(t *testing.T) {
	rng := sim.NewRNG(27)
	states := []procState{procReady, procBlocked, procExited, procReady}
	randomProc := func() *Proc { return &Proc{state: states[rng.Intn(len(states))]} }
	for trial := 0; trial < 500; trial++ {
		var procs []*Proc
		for i := rng.Intn(9); i > 0; i-- {
			procs = append(procs, randomProc())
		}
		rr := 0
		if len(procs) > 0 {
			rr = rng.Intn(len(procs))
		}
		got, want := &Kernel{procs: procs, rrIndex: rr}, &Kernel{procs: procs, rrIndex: rr}
		for step := 0; step < 40; step++ {
			switch r := rng.Intn(10); {
			case r == 0:
				procs = append(procs, randomProc())
				got.procs, want.procs = procs, procs
			case r < 5 && len(procs) > 0:
				procs[rng.Intn(len(procs))].state = states[rng.Intn(len(states))]
			}
			start := got.rrIndex
			if g, w := got.nextReady(), moduloNextReady(want); g != w || got.rrIndex != want.rrIndex {
				t.Fatalf("trial %d step %d: %d procs from rrIndex %d: nextReady picked %p (rrIndex %d), the modulo scan %p (rrIndex %d)",
					trial, step, len(procs), start, g, got.rrIndex, w, want.rrIndex)
			}
		}
	}
}
