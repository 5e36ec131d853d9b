package shrimp_test

// One benchmark per reproduced table/figure of the paper (E1–E10 of the
// E1–E18 index in DESIGN.md), plus E11's transfer-strategy comparison.
// Each benchmark runs real simulated work per iteration and reports
// the *simulated* time and bandwidth as custom metrics (sim-us/op,
// sim-MB/s) alongside Go's wall-clock ns/op — the simulated numbers are
// the ones that correspond to the paper.

import (
	"fmt"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/core"
	"shrimp/internal/device"
	"shrimp/internal/experiments"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// BenchmarkFig8Bandwidth regenerates Figure 8: deliberate-update
// bandwidth per message size on the two-node SHRIMP pair.
func BenchmarkFig8Bandwidth(b *testing.B) {
	for _, size := range []int{512, 1024, 4096, 8192, 65536} {
		size := size
		b.Run(fmt.Sprintf("msg=%d", size), func(b *testing.B) {
			c := cluster.New(cluster.Config{
				Nodes:   2,
				Machine: machine.Config{RAMFrames: 128},
				NIC:     nic.Config{NIPTPages: 64},
			})
			defer c.Shutdown()
			pfns := make([]uint32, 16)
			for i := range pfns {
				pfns[i] = uint32(32 + i)
			}
			if err := udmalib.MapSendWindow(c.NICs[0], 0, 1, pfns); err != nil {
				b.Fatal(err)
			}
			var elapsed sim.Cycles
			var sendErr error
			c.Nodes[0].Kernel.Spawn("sender", func(p *kernel.Proc) {
				d, err := udmalib.Open(p, c.NICs[0], true)
				if err != nil {
					sendErr = err
					return
				}
				va, _ := p.Alloc(16 * 4096)
				p.WriteBuf(va, workload.Payload(size, 1))
				if sendErr = d.Send(va, 0, size); sendErr != nil {
					return // warm-up
				}
				start := p.Now()
				for i := 0; i < b.N; i++ {
					if sendErr = d.Send(va, 0, size); sendErr != nil {
						return
					}
				}
				elapsed = p.Now() - start
			})
			b.ResetTimer()
			if err := c.Nodes[0].Kernel.Run(sim.Forever); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if sendErr != nil {
				b.Fatal(sendErr)
			}
			costs := c.Nodes[0].Costs
			b.ReportMetric(costs.Micros(elapsed)/float64(b.N), "sim-us/op")
			b.ReportMetric(float64(size*b.N)/costs.Seconds(elapsed)/1e6, "sim-MB/s")
		})
	}
}

// BenchmarkInitiationCost regenerates the Section 8 scalar: the
// two-instruction initiation sequence plus alignment check (≈2.8 µs).
func BenchmarkInitiationCost(b *testing.B) {
	n := machine.New(0, machine.Config{})
	buf := device.NewBuffer("buf", 16, 4, 0)
	n.AttachDevice(buf, 0)
	defer n.Kernel.Shutdown()

	var elapsed sim.Cycles
	var runErr error
	check := udmalib.DefaultTunables().CheckCycles
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		devVA, err := p.MapDevice(buf, true)
		if err != nil {
			runErr = err
			return
		}
		va, _ := p.Alloc(4096)
		p.WriteBuf(va, workload.Payload(64, 1))
		src := addr.VProxy(va)
		// Warm-up.
		p.Store(devVA, 64)
		p.Load(src)
		for {
			v, _ := p.Load(src)
			if !core.Status(v).Match() && !core.Status(v).Transferring() {
				break
			}
		}
		var total sim.Cycles
		for i := 0; i < b.N; i++ {
			start := p.Now()
			p.Compute(check)
			p.Store(devVA, 64)
			v, err := p.Load(src)
			if err != nil {
				runErr = err
				return
			}
			total += p.Now() - start
			if !core.Status(v).Initiated() {
				runErr = fmt.Errorf("initiation failed: %v", core.Status(v))
				return
			}
			for {
				v, _ := p.Load(src)
				if !core.Status(v).Match() && !core.Status(v).Transferring() {
					break
				}
			}
		}
		elapsed = total
	})
	b.ResetTimer()
	if err := n.Kernel.Run(sim.Forever); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if runErr != nil {
		b.Fatal(runErr)
	}
	b.ReportMetric(n.Costs.Micros(elapsed)/float64(b.N), "sim-us/op")
}

// BenchmarkTraditionalDMAOverhead regenerates the Section 1 HIPPI
// table: kernel-initiated DMA on a 100 MB/s channel.
func BenchmarkTraditionalDMAOverhead(b *testing.B) {
	for _, size := range []int{1024, 65536, 262144} {
		size := size
		b.Run(fmt.Sprintf("block=%d", size), func(b *testing.B) {
			benchKernelDMA(b, size, true)
		})
	}
}

// BenchmarkInitiationComparison regenerates the Sections 2–3 breakdown
// table on the SHRIMP model: kernel DMA (pinned) for 1 KB.
func BenchmarkInitiationComparison(b *testing.B) {
	b.Run("udma", func(b *testing.B) { BenchmarkInitiationCost(b) })
	b.Run("kernel-pinned", func(b *testing.B) { benchKernelDMA(b, 1024, false) })
}

func benchKernelDMA(b *testing.B, size int, hippi bool) {
	cfg := machine.Config{RAMFrames: size/4096 + 64, NoUDMA: true}
	if hippi {
		m := machine.SHRIMP1996()
		m.DMABytesPerCyc = 100e6 / m.CPUHz
		m.SyscallEntry, m.SyscallExit, m.InterruptEntry = 12000, 4000, 5000
		m.PinPage, m.UnpinPage, m.TranslatePage, m.BuildDescPage = 120, 80, 60, 30
		m.DMAStartup = 100
		cfg.Costs = m
	}
	n := machine.New(0, cfg)
	dev := device.NewBuffer("ch", uint32(size/4096+2), 4, 0)
	n.AttachDevice(dev, 0)
	defer n.Kernel.Shutdown()

	var elapsed sim.Cycles
	var runErr error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, _ := p.Alloc(size)
		p.WriteBuf(va, workload.Payload(size, 2))
		if runErr = p.DMAWrite(va, addr.DevProxy(0, 0), size, kernel.DMAOptions{}); runErr != nil {
			return
		}
		start := p.Now()
		for i := 0; i < b.N; i++ {
			if runErr = p.DMAWrite(va, addr.DevProxy(0, 0), size, kernel.DMAOptions{}); runErr != nil {
				return
			}
		}
		elapsed = p.Now() - start
	})
	b.ResetTimer()
	if err := n.Kernel.Run(sim.Forever); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if runErr != nil {
		b.Fatal(runErr)
	}
	b.ReportMetric(n.Costs.Micros(elapsed)/float64(b.N), "sim-us/op")
	b.ReportMetric(float64(size*b.N)/n.Costs.Seconds(elapsed)/1e6, "sim-MB/s")
}

// BenchmarkPIOvsUDMA regenerates the Section 9 comparison rows: per-op
// cost of pushing one message through the memory-mapped FIFO vs UDMA.
func BenchmarkPIOvsUDMA(b *testing.B) {
	for _, mode := range []string{"pio", "udma"} {
		for _, size := range []int{64, 1024, 4096} {
			mode, size := mode, size
			b.Run(fmt.Sprintf("%s/msg=%d", mode, size), func(b *testing.B) {
				benchNICSend(b, size, mode == "pio")
			})
		}
	}
}

func benchNICSend(b *testing.B, size int, pio bool) {
	c := cluster.New(cluster.Config{
		Nodes:   2,
		Machine: machine.Config{RAMFrames: 64},
		NIC:     nic.Config{NIPTPages: 16, PIOWindow: true},
	})
	defer c.Shutdown()
	if err := udmalib.MapSendWindow(c.NICs[0], 0, 1, []uint32{40}); err != nil {
		b.Fatal(err)
	}
	var elapsed sim.Cycles
	var runErr error
	c.Nodes[0].Kernel.Spawn("sender", func(p *kernel.Proc) {
		d, err := udmalib.Open(p, c.NICs[0], true)
		if err != nil {
			runErr = err
			return
		}
		va, _ := p.Alloc(4096)
		p.WriteBuf(va, workload.Payload(size, 3))
		pioBase := d.Base() + addr.VAddr(uint32(c.NICs[0].NIPTSize())<<addr.PageShift)
		data, _ := p.ReadBuf(va, size)
		send := func() error {
			if pio {
				if err := p.Store(pioBase+nic.PIORegDest, 0); err != nil {
					return err
				}
				for i := 0; i+4 <= len(data); i += 4 {
					w := uint32(data[i]) | uint32(data[i+1])<<8 |
						uint32(data[i+2])<<16 | uint32(data[i+3])<<24
					if err := p.Store(pioBase+nic.PIORegData, w); err != nil {
						return err
					}
				}
				return p.Store(pioBase+nic.PIORegLaunch, 0)
			}
			return d.Send(va, 0, size)
		}
		if runErr = send(); runErr != nil {
			return
		}
		start := p.Now()
		for i := 0; i < b.N; i++ {
			if runErr = send(); runErr != nil {
				return
			}
		}
		elapsed = p.Now() - start
	})
	b.ResetTimer()
	if err := c.Nodes[0].Kernel.Run(sim.Forever); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if runErr != nil {
		b.Fatal(runErr)
	}
	costs := c.Nodes[0].Costs
	b.ReportMetric(costs.Micros(elapsed)/float64(b.N), "sim-us/op")
	b.ReportMetric(float64(size*b.N)/costs.Seconds(elapsed)/1e6, "sim-MB/s")
}

// BenchmarkMultiPageQueueing regenerates the Section 7 table: serial vs
// queued multi-page sends.
func BenchmarkMultiPageQueueing(b *testing.B) {
	for _, depth := range []int{0, 8} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d/msg=32768", depth), func(b *testing.B) {
			n := machine.New(0, machine.Config{
				RAMFrames: 96,
				UDMA:      core.Config{QueueDepth: depth},
			})
			buf := device.NewBuffer("buf", 12, 4, 0)
			n.AttachDevice(buf, 0)
			defer n.Kernel.Shutdown()
			const size = 32768
			var elapsed sim.Cycles
			var runErr error
			n.Kernel.Spawn("p", func(p *kernel.Proc) {
				d, _ := udmalib.Open(p, buf, true)
				va, _ := p.Alloc(size)
				p.WriteBuf(va, workload.Payload(size, 4))
				send := func() error {
					if depth > 0 {
						return d.QueuedSend(va, 0, size)
					}
					return d.Send(va, 0, size)
				}
				if runErr = send(); runErr != nil {
					return
				}
				start := p.Now()
				for i := 0; i < b.N; i++ {
					if runErr = send(); runErr != nil {
						return
					}
				}
				elapsed = p.Now() - start
			})
			b.ResetTimer()
			if err := n.Kernel.Run(sim.Forever); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if runErr != nil {
				b.Fatal(runErr)
			}
			b.ReportMetric(n.Costs.Micros(elapsed)/float64(b.N), "sim-us/op")
			b.ReportMetric(float64(size*b.N)/n.Costs.Seconds(elapsed)/1e6, "sim-MB/s")
		})
	}
}

// The remaining experiments involve whole-machine interactions
// (multi-process scheduling, paging pressure, 4-node clusters) that do
// not decompose into a per-iteration op; their benchmarks run the full
// experiment per iteration and report whether its shape checks held.
func benchExperiment(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			for _, c := range res.Checks {
				if !c.Pass {
					b.Fatalf("%s: %s — %s", id, c.Name, c.Detail)
				}
			}
		}
	}
}

// BenchmarkContextSwitchInval regenerates the Section 6 / I1 table.
func BenchmarkContextSwitchInval(b *testing.B) { benchExperiment(b, "e7") }

// BenchmarkPinningVsRemapGuard regenerates the Section 6 / I4 table.
func BenchmarkPinningVsRemapGuard(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkNIPTTranslation regenerates the Section 8 NIPT table.
func BenchmarkNIPTTranslation(b *testing.B) { benchExperiment(b, "e9") }

// BenchmarkFourNodePrototype regenerates the Section 8 prototype table.
func BenchmarkFourNodePrototype(b *testing.B) { benchExperiment(b, "e10") }

// BenchmarkAutoVsDeliberate regenerates the extension table comparing
// SHRIMP's two transfer strategies (e11).
func BenchmarkAutoVsDeliberate(b *testing.B) { benchExperiment(b, "e11") }
