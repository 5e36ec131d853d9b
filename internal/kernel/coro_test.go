package kernel_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"shrimp/internal/addr"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
)

// interleaved runs three preemptible processes that compute, sleep and
// touch memory, in Run windows of 3000 cycles, each window driven by
// drive. It returns the log of (pid, time) steps the processes saw and
// the final kernel counters.
func interleaved(t *testing.T, drive func(run func() error) error) string {
	t.Helper()
	n, _ := newNode(t, machine.Config{Kernel: kernel.Config{Quantum: 700}})
	var log []string
	for i := 0; i < 3; i++ {
		n.Kernel.Spawn(fmt.Sprintf("p%d", i), func(p *kernel.Proc) {
			va, err := p.Alloc(2 * addr.PageSize)
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			for j := 0; j < 40; j++ {
				p.Compute(sim.Cycles(200 + 150*p.PID()))
				if err := p.Store(va+addr.VAddr(4*j), uint32(j)); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				if j%3 == p.PID()%3 {
					p.Sleep(sim.Cycles(500 * p.PID()))
				}
				log = append(log, fmt.Sprintf("%d@%d", p.PID(), p.Now()))
			}
		})
	}
	for limit := sim.Cycles(3000); !n.Kernel.AllExited(); limit += 3000 {
		if limit > 10_000_000 {
			t.Fatal("processes never exited")
		}
		if err := drive(func() error { return n.Kernel.Run(limit) }); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%v %+v now=%d", log, n.Kernel.Stats(), n.Clock.Now())
}

// TestRunWindowsFromManyGoroutines drives one kernel's successive Run
// windows from a new goroutine each, as the cluster's pool workers do,
// and wants the result bit-identical to driving it from one goroutine.
// Under -race it also checks that the coroutine handoff orders every
// access across the goroutines.
func TestRunWindowsFromManyGoroutines(t *testing.T) {
	serial := interleaved(t, func(run func() error) error { return run() })
	hopping := interleaved(t, func(run func() error) error {
		done := make(chan error)
		go func() { done <- run() }()
		return <-done
	})
	if serial != hopping {
		t.Fatalf("windows driven from many goroutines diverge:\n one: %s\nmany: %s", serial, hopping)
	}
}

// TestShutdownReleasesGoroutines spawns processes in every state —
// finished, blocked, preempted and never started — and wants the
// goroutine count back at its baseline once Shutdown has run.
func TestShutdownReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	n := machine.New(0, machine.Config{Kernel: kernel.Config{Quantum: 500}})
	n.Kernel.Spawn("done", func(p *kernel.Proc) { p.Compute(10) })
	n.Kernel.Spawn("sleeper", func(p *kernel.Proc) { p.Sleep(1 << 40) })
	n.Kernel.Spawn("spinner", func(p *kernel.Proc) {
		for {
			p.Compute(100)
		}
	})
	if err := n.Kernel.Run(20_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n.Kernel.Spawn("unstarted", func(p *kernel.Proc) { p.Compute(1) })
	}
	n.Kernel.Shutdown()
	if !n.Kernel.AllExited() {
		t.Fatal("Shutdown left a process alive")
	}
	// An exiting goroutine may take a moment to leave the count.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after Shutdown, want the baseline %d", got, base)
	}
}

// TestProcessPanicSurfacesFromRun panics in a process body: the panic
// must reach the goroutine that called Kernel.Run, where it can be
// recovered, and leave the process exited.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	p := n.Kernel.Spawn("bad", func(p *kernel.Proc) {
		p.Compute(10)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = n.Kernel.Run(sim.Forever)
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v from Run, want the process's panic \"boom\"", got)
	}
	if !p.Exited() {
		t.Fatal("panicked process not marked exited")
	}
}

// TestSleepHandoffAllocs guards the kernel handoff's allocation budget:
// one Proc.Sleep(1) round trip through Kernel.Run — park, advance the
// clock to the wake event, resume — allocates nothing.
func TestSleepHandoffAllocs(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	n.Kernel.Spawn("sleeper", func(p *kernel.Proc) {
		for {
			p.Sleep(1)
		}
	})
	window := func() {
		if err := n.Kernel.Run(n.Clock.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	window() // first switch-in and event slab growth
	before := n.Kernel.Stats()
	allocs := testing.AllocsPerRun(100, window)
	if allocs != 0 {
		t.Fatalf("Sleep(1) round trip allocates %.1f times, want 0", allocs)
	}
	if n.Kernel.Stats() != before {
		t.Fatalf("round trips switched context: %+v, want %+v", n.Kernel.Stats(), before)
	}
}
