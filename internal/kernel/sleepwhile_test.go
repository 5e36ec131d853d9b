package kernel_test

import (
	"fmt"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// sleepWhileProgram runs one program of waiting processes and returns
// everything it can observe: the processes' own log, the kernel
// counters, the clock, and every trace event. With literal set each
// wait is the loop `for idle() { p.Sleep(d) }` written out; otherwise
// it is Proc.SleepWhile. It also returns how many wakes Run re-armed
// without resuming the process.
//
// The program has a quantum, a worker that flips one condition, a
// clock event that flips another every 97 cycles (less than a context
// switch, so flips land inside the switch that resumes a waiter), a
// condition the harness flips between windows, two kills of a process
// inside a wait (one between windows, one by a clock event that fires
// inside the context switch that resumes the process), and a process
// still waiting at Shutdown.
func sleepWhileProgram(t *testing.T, literal bool) (string, uint64) {
	t.Helper()
	n, _ := newNode(t, machine.Config{Kernel: kernel.Config{Quantum: 700}})
	tr := trace.New(n.Clock, 1<<16)
	n.SetTracer(tr)
	wait := func(p *kernel.Proc, d sim.Cycles, idle func() bool) {
		if literal {
			for idle() {
				p.Sleep(d)
			}
			return
		}
		p.SleepWhile(d, idle)
	}
	var log []string
	note := func(p *kernel.Proc, what string) {
		log = append(log, fmt.Sprintf("%s:%s@%d", p.Name(), what, p.Now()))
	}

	flipped := false
	var flip func()
	flip = func() {
		flipped = !flipped
		if n.Clock.Now() < 40_000 {
			n.Clock.ScheduleAfter(97, flip)
		}
	}
	n.Clock.ScheduleAfter(97, flip)

	ready, stop := false, false
	n.Kernel.Spawn("worker", func(p *kernel.Proc) {
		va, err := p.Alloc(addr.PageSize)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		for i := 0; i < 16; i++ {
			p.Compute(sim.Cycles(450 + 70*i))
			if err := p.Store(va+addr.VAddr(4*i), uint32(i)); err != nil {
				t.Errorf("store: %v", err)
				return
			}
			ready = i%3 != 0
			note(p, fmt.Sprint("ready=", ready))
			if i%4 == 3 {
				p.Sleep(1100)
			}
		}
	})
	n.Kernel.Spawn("on-worker", func(p *kernel.Proc) {
		for i := 0; i < 12; i++ {
			wait(p, sim.Cycles(200+30*i), func() bool { return !ready })
			note(p, "go")
			p.Compute(380)
		}
	})
	n.Kernel.Spawn("on-event", func(p *kernel.Proc) {
		for i := 0; i < 40; i++ {
			wait(p, 130, func() bool { return !flipped })
			note(p, "go")
			p.Compute(60)
		}
	})
	victim := n.Kernel.Spawn("victim", func(p *kernel.Proc) {
		defer func() { note(p, "unwound") }()
		wait(p, 250, func() bool { return true })
	})
	// Once the other processes are done, the event victim waits from
	// 53,000 on. Its wake at 54,650 finds the CPU busy until 54,800, so
	// the kill at 54,900 fires inside the switch that resumes it.
	eventVictim := n.Kernel.Spawn("event-victim", func(p *kernel.Proc) {
		defer func() { note(p, "unwound") }()
		p.Sleep(53_000 - p.Now())
		wait(p, 250, func() bool { return true })
	})
	n.Clock.Schedule(54_900, func() { n.Kernel.Kill(eventVictim) })
	n.Kernel.Spawn("on-harness", func(p *kernel.Proc) {
		wait(p, 2000, func() bool { return !stop })
		note(p, "stopped")
	})
	n.Kernel.Spawn("forever", func(p *kernel.Proc) {
		defer func() { note(p, "shut down") }()
		wait(p, 900, func() bool { return true })
	})

	for limit := sim.Cycles(1000); limit <= 90_000; limit += 1000 {
		if err := n.Kernel.Run(limit); err != nil {
			t.Fatal(err)
		}
		switch limit {
		case 17_000:
			n.Kernel.Kill(victim)
		case 31_000:
			stop = true
		}
	}
	n.Kernel.Shutdown()
	if !n.Kernel.AllExited() {
		t.Fatal("processes left after Shutdown")
	}
	var total uint64
	for _, c := range tr.Counts() {
		total += c
	}
	events := tr.Events()
	if uint64(len(events)) != total {
		t.Fatalf("trace kept %d of %d events; the comparison would miss some", len(events), total)
	}
	return fmt.Sprintf("%v\n%+v\nnow=%d\n%v", log, n.Kernel.Stats(), n.Clock.Now(), events), n.Kernel.IdleRearms()
}

// TestSleepWhileMatchesSleepLoop: SleepWhile is exactly the sleep loop
// it stands for, although Run re-arms most of its wakes without
// resuming the process: the same log, counters, clock and trace.
func TestSleepWhileMatchesSleepLoop(t *testing.T) {
	want, loopRearms := sleepWhileProgram(t, true)
	got, rearms := sleepWhileProgram(t, false)
	if got != want {
		t.Fatalf("SleepWhile run differs from the sleep loop\nSleepWhile:\n%s\nloop:\n%s", got, want)
	}
	t.Logf("%d of the SleepWhile run's wakes re-armed by Run", rearms)
	if loopRearms != 0 {
		t.Fatalf("the literal loop had %d wakes re-armed, want 0", loopRearms)
	}
	if rearms < 50 {
		t.Fatalf("Run re-armed only %d SleepWhile wakes; the comparison barely covers the fast path", rearms)
	}
}
