package experiments

import (
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/workload"
)

// hippiCosts models the paper's motivating example (Section 1): a
// 100 MB/s HIPPI channel on the Paragon whose kernel-initiated send
// overhead exceeds 350 µs. Kernel path costs are scaled up from the
// SHRIMP model to land the fixed per-send overhead in that range; the
// channel itself is fast.
func hippiCosts() *sim.CostModel {
	m := machine.SHRIMP1996()
	m.DMABytesPerCyc = 100e6 / m.CPUHz // 100 MB/s channel
	m.DMAStartup = 100
	m.SyscallEntry = 12000  // 200 µs: heavyweight message-system entry
	m.SyscallExit = 4000    // 67 µs
	m.InterruptEntry = 5000 // 83 µs completion handling
	m.PinPage = 120
	m.UnpinPage = 80
	m.TranslatePage = 60
	m.BuildDescPage = 30
	return m
}

// RunHIPPIOverhead reproduces the introduction's numbers: "the overhead
// of sending a piece of data over a 100 MByte/sec HIPPI channel on the
// Paragon multicomputer is more than 350 microseconds. With a data
// block size of 1 Kbyte, the transfer rate achieved is only
// 2.7 MByte/sec, which is less than 2% of the raw hardware bandwidth.
// Achieving a transfer rate of 80 MBytes/sec requires the data block
// size to be larger than 64 KBytes."
func RunHIPPIOverhead() (*Result, error) {
	res := &Result{
		ID:    "e3",
		Title: "Traditional DMA overhead on a HIPPI-class channel",
		Paper: ">350 µs overhead; 1 KB blocks reach only ~2.7 MB/s (<3% of raw); 80 MB/s needs blocks ≫64 KB",
	}
	costs := hippiCosts()

	series := &stats.Series{
		Name:   "kernel-initiated DMA effective bandwidth",
		XLabel: "block size (bytes)",
		YLabel: "MB/s",
	}
	tbl := stats.NewTable("Kernel DMA on a 100 MB/s channel",
		"block size", "MB/s", "% of raw", "µs/transfer")

	var overhead1KB float64
	for _, size := range workload.HIPPIBlockSizes() {
		us, err := hippiTransferTime(costs, size)
		if err != nil {
			return nil, fmt.Errorf("hippi block %d: %w", size, err)
		}
		bw := float64(size) / (us * 1e-6) / 1e6
		series.Add(float64(size), bw)
		tbl.AddRow(stats.Bytes(size), fmt.Sprintf("%.1f", bw),
			fmt.Sprintf("%.1f", bw), fmt.Sprintf("%.0f", us))
		if size == 1024 {
			overhead1KB = us - float64(size)/100e6*1e6 // subtract wire time
		}
	}
	res.Series = append(res.Series, series)
	res.Tables = append(res.Tables, tbl)

	at := func(x int) float64 { v, _ := series.Y(float64(x)); return v }
	res.check("fixed overhead > 350 µs", overhead1KB > 350,
		"measured %.0f µs of non-wire time per send", overhead1KB)
	res.check("1 KB blocks under 5% of raw", at(1024) < 5,
		"measured %.1f MB/s at 1 KB (paper: 2.7)", at(1024))
	res.check("64 KB blocks still below 80 MB/s", at(65536) < 80,
		"measured %.1f MB/s at 64 KB", at(65536))
	res.check("80 MB/s reachable with very large blocks", at(524288) >= 75,
		"measured %.1f MB/s at 512 KB", at(524288))
	res.check("bandwidth monotonically increasing", monotone(series),
		"curve rises with block size")
	return res, nil
}

func monotone(s *stats.Series) bool {
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Y < s.Points[i-1].Y {
			return false
		}
	}
	return true
}

// hippiTransferTime measures one steady-state kernel-DMA send of the
// given size, in microseconds.
func hippiTransferTime(costs *sim.CostModel, size int) (float64, error) {
	frames := size/addr.PageSize + 64
	n := machine.New(0, machine.Config{
		Costs:     costs,
		RAMFrames: frames,
		NoUDMA:    true, // the baseline machine has no UDMA hardware
	})
	// The "HIPPI channel": a device that accepts arbitrarily large
	// writes with no extra latency (the channel itself is not the
	// bottleneck in this experiment).
	ch := device.NewBuffer("hippi", uint32(size/addr.PageSize+2), 4, 0)
	n.AttachDevice(ch, 0)
	defer n.Kernel.Shutdown()

	var cycles sim.Cycles
	err := runOn(n, "p", func(p *kernel.Proc) error {
		va, err := p.Alloc(size)
		if err != nil {
			return err
		}
		if err := p.WriteBuf(va, workload.Payload(size, 9)); err != nil {
			return err
		}
		// Warm-up, then measure.
		if err := p.DMAWrite(va, addr.DevProxy(0, 0), size, kernel.DMAOptions{}); err != nil {
			return err
		}
		start := p.Now()
		if err := p.DMAWrite(va, addr.DevProxy(0, 0), size, kernel.DMAOptions{}); err != nil {
			return err
		}
		cycles = p.Now() - start
		return nil
	})
	if err != nil {
		return 0, err
	}
	return costs.Micros(cycles), nil
}
