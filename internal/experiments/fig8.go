package experiments

import (
	"fmt"

	"shrimp/internal/cluster"
	"shrimp/internal/core"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// fig8WindowPages is the send-window size: large enough for the biggest
// message in the sweep (64 KB = 16 pages).
const fig8WindowPages = 16

// RunFig8 reproduces Figure 8: the bandwidth of deliberate-update UDMA
// transfers as a percentage of the maximum measured bandwidth, for
// message sizes from 64 B to 64 KB (the paper plots 0–8 KB and states
// the maximum is sustained beyond 8 KB).
//
// Paper's shape: the curve "exceeds 50% of the maximum measured at a
// message size of only 512 bytes"; a full 4 KB page "achieves 94% of
// the maximum bandwidth"; "the slight dip in the curve after that point
// reflects the cost of initiating and starting a second UDMA transfer";
// the maximum is "sustained for messages exceeding 8 Kbytes in size".
func RunFig8() (*Result, error) {
	res := &Result{
		ID:    "e1",
		Title: "Figure 8: deliberate-update UDMA bandwidth vs message size",
		Paper: ">50% of peak at 512 B; 94% at 4 KB; dip just past 4 KB; max sustained >8 KB",
	}
	costs := machine.SHRIMP1996()

	raw := &stats.Series{Name: "deliberate update bandwidth", XLabel: "message size (bytes)", YLabel: "MB/s"}
	queued := &stats.Series{Name: "with request queue (Section 7 ablation)", XLabel: "message size (bytes)", YLabel: "MB/s"}
	for _, size := range workload.Fig8Sizes() {
		bw, err := fig8Bandwidth(size, 0)
		if err != nil {
			return nil, fmt.Errorf("fig8 size %d: %w", size, err)
		}
		raw.Add(float64(size), bw)
		qbw, err := fig8Bandwidth(size, 8)
		if err != nil {
			return nil, fmt.Errorf("fig8 queued size %d: %w", size, err)
		}
		queued.Add(float64(size), qbw)
	}

	pct := &stats.Series{
		Name:   "Figure 8: % of maximum measured bandwidth",
		XLabel: "message size (bytes)",
		YLabel: "% of peak",
	}
	peak := raw.MaxY()
	for _, p := range raw.Points {
		pct.Add(p.X, p.Y/peak*100)
	}
	res.Series = append(res.Series, pct, raw, queued)

	tbl := stats.NewTable("Deliberate update bandwidth (SHRIMP1996 model)",
		"message size", "MB/s", "% of peak", "MB/s with queue")
	for i, p := range raw.Points {
		tbl.AddRow(stats.Bytes(int(p.X)), fmt.Sprintf("%.2f", p.Y),
			fmt.Sprintf("%.1f", pct.Points[i].Y),
			fmt.Sprintf("%.2f", queued.Points[i].Y))
	}
	res.Tables = append(res.Tables, tbl)

	at := func(x int) float64 { v, _ := pct.Y(float64(x)); return v }
	res.check("peak bandwidth plausible for EISA", peak > 15 && peak < 33,
		"peak %.1f MB/s (EISA burst is 33 MB/s raw)", peak)
	res.check(">50% of peak at 512 B", at(512) > 50, "measured %.1f%%", at(512))
	res.check("~94% of peak at 4 KB (±4)", at(4096) >= 90 && at(4096) <= 98,
		"measured %.1f%%", at(4096))
	dipLow := 100.0
	for _, p := range pct.Points {
		if p.X > 4096 && p.X < 8192 && p.Y < dipLow {
			dipLow = p.Y
		}
	}
	res.check("dip just past 4 KB", dipLow < at(4096), "dip to %.1f%% vs %.1f%% at 4 KB",
		dipLow, at(4096))
	res.check("recovers by 8 KB", at(8192) >= at(4096), "%.1f%% at 8 KB", at(8192))
	res.check("max sustained beyond 8 KB", at(65536) >= 98, "%.1f%% at 64 KB", at(65536))

	// Section 7 ablation: the dip exists because the second page's
	// initiation waits for the first transfer; with the request queue
	// the initiations pipeline, so the post-4 KB dip shallows out.
	rawDip, _ := raw.Y(4608)
	qDip, _ := queued.Y(4608)
	res.check("request queue shallows the dip (Section 7)", qDip > rawDip,
		"4.5 KB: %.2f MB/s queued vs %.2f serial", qDip, rawDip)

	res.Notes = append(res.Notes,
		fmt.Sprintf("peak measured bandwidth %.1f MB/s; per-initiation cost %.1f µs (see e2)",
			peak, 2.8),
		"receive side is pure hardware (deliberate update): sender-limited, as on SHRIMP")
	res.metric("peak_mbps", peak)
	res.metric("pct_of_peak_at_512B", at(512))
	res.metric("pct_of_peak_at_4KB", at(4096))
	res.metric("queued_mbps_at_4.5KB", qDip)
	_ = costs
	return res, nil
}

// fig8Bandwidth measures steady-state one-way bandwidth for one message
// size on a fresh two-node cluster. queueDepth 0 is the real SHRIMP
// board (serial per-page initiation); >0 enables the Section 7 queue.
func fig8Bandwidth(size, queueDepth int) (float64, error) {
	c := cluster.New(cluster.Config{
		Nodes: 2,
		Machine: machine.Config{
			RAMFrames: 128,
			UDMA:      core.Config{QueueDepth: queueDepth},
		},
		NIC: nic.Config{NIPTPages: 64},
	})
	defer c.Shutdown()
	costs := c.Nodes[0].Costs

	// Receive window: raw frames 32.. on node 1 (hardware writes them;
	// no receiver process is involved in deliberate update).
	pfns := make([]uint32, fig8WindowPages)
	for i := range pfns {
		pfns[i] = uint32(32 + i)
	}
	if err := udmalib.MapSendWindow(c.NICs[0], 0, 1, pfns); err != nil {
		return 0, err
	}

	reps := 8
	if size < 4096 {
		reps = 32768 / size // keep total work comparable across sizes
	}

	var elapsed sim.Cycles
	err := runSender(c, func(p *kernel.Proc) error {
		d, err := udmalib.Open(p, c.NICs[0], true)
		if err != nil {
			return err
		}
		va, err := p.Alloc(fig8WindowPages * 4096)
		if err != nil {
			return err
		}
		if err := p.WriteBuf(va, workload.Payload(size, 7)); err != nil {
			return err
		}
		send := func() error {
			if queueDepth > 0 {
				return d.QueuedSend(va, 0, size)
			}
			return d.Send(va, 0, size)
		}
		// Warm mappings and hardware.
		if err := send(); err != nil {
			return err
		}
		start := p.Now()
		for r := 0; r < reps; r++ {
			if err := send(); err != nil {
				return err
			}
		}
		elapsed = p.Now() - start
		return nil
	})
	if err != nil {
		return 0, err
	}
	return mbps(costs, size*reps, elapsed), nil
}
