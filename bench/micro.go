package main

import (
	"flag"
	"fmt"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/mmu"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
)

// microBenchTime is each microbenchmark's testing.Benchmark budget.
const microBenchTime = "300ms"

// runMicros runs the microbenchmarks on public calls and returns their
// ns/op and allocs/op, keyed <name>_ns and <name>_allocs.
func runMicros(workers int) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchTime); err != nil {
		return nil, err
	}
	benches := map[string]func(b *testing.B){
		"micro.kernel.handoff":      benchHandoff,
		"micro.mmu.translate":       benchTranslate,
		"micro.cluster.step_idle64": func(b *testing.B) { benchStepIdle64(b, workers) },
	}
	out := map[string]float64{}
	for _, name := range microNames {
		r := testing.Benchmark(benches[name])
		if r.N == 0 {
			return nil, fmt.Errorf("%s: benchmark failed", name)
		}
		out[name+"_ns"] = float64(r.T.Nanoseconds()) / float64(r.N)
		out[name+"_allocs"] = float64(r.MemAllocs) / float64(r.N)
	}
	return out, nil
}

// benchHandoff times one Proc.Sleep(1) round trip through Kernel.Run:
// the process parks, the kernel advances the clock to the wake event
// and resumes it — two coroutine handoffs.
func benchHandoff(b *testing.B) {
	n := machine.New(0, machine.Config{})
	defer n.Kernel.Shutdown()
	n.Kernel.Spawn("sleeper", func(p *kernel.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := n.Kernel.Run(sim.Forever); err != nil {
		b.Fatal(err)
	}
}

// benchTranslate times a TLB-hit MMU.Translate.
func benchTranslate(b *testing.B) {
	m := mmu.New(mmu.NewTLB(64), sim.NewClock(), machine.SHRIMP1996())
	as := mmu.NewAddressSpace(1)
	const va = addr.VAddr(0x0001_0000)
	as.Set(addr.VPN(va), mmu.PTE{Valid: true, Present: true, Writable: true, PPN: 7})
	if _, f := m.Translate(as, va, mmu.Read); f != nil {
		b.Fatal(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr, f := m.Translate(as, va, mmu.Read); f != nil || !tr.TLBHit {
			b.Fatal("TLB miss in the hit benchmark")
		}
	}
}

// benchStepIdle64 times one Cluster.Step on an idle 64-node mesh: the
// barrier flush, the reclaim scan, the horizon computation and the
// worker-pool fan-out, with no process to run.
func benchStepIdle64(b *testing.B, workers int) {
	c := cluster.New(cluster.Config{
		Nodes: incastNodes,
		Topology: interconnect.Topology{Kind: interconnect.KindMesh, Nodes: incastNodes,
			Width: incastWidth, LinkBytesPerCyc: incastBPC},
		Workers: workers,
		Window:  20_000,
		Machine: machine.Config{RAMFrames: 96},
		NIC:     nic.Config{NIPTPages: incastNodes},
	})
	defer c.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Step(sim.Cycles(i+1) * c.Window()); err != nil {
			b.Fatal(err)
		}
	}
}
