package experiments

import (
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// RunPIOvsUDMA reproduces the Section 9 comparison with memory-mapped
// FIFO network interfaces: "This approach results in good latency for
// short messages. However, for longer messages the DMA-based controller
// is preferable because it makes use of the bus burst mode, which is
// much faster than processor-generated single word transactions."
// We sweep message size over both paths on the same NIC and locate the
// crossover.
func RunPIOvsUDMA() (*Result, error) {
	res := &Result{
		ID:    "e5",
		Title: "Memory-mapped FIFO (PIO) vs UDMA",
		Paper: "FIFO wins short-message latency; DMA burst wins bandwidth; crossover in between",
	}

	sizes := []int{16, 64, 128, 256, 512, 1024, 4096}
	pioSeries := &stats.Series{Name: "PIO FIFO latency", XLabel: "message size (bytes)", YLabel: "µs"}
	udmaSeries := &stats.Series{Name: "UDMA latency", XLabel: "message size (bytes)", YLabel: "µs"}
	tbl := stats.NewTable("One-way end-to-end latency (send start → data in remote memory)",
		"size", "PIO µs", "UDMA µs", "winner")

	var crossover int = -1
	for _, size := range sizes {
		pioUS, err := nicLatency(size, true)
		if err != nil {
			return nil, fmt.Errorf("pio %d: %w", size, err)
		}
		udmaUS, err := nicLatency(size, false)
		if err != nil {
			return nil, fmt.Errorf("udma %d: %w", size, err)
		}
		pioSeries.Add(float64(size), pioUS)
		udmaSeries.Add(float64(size), udmaUS)
		winner := "PIO"
		if udmaUS < pioUS {
			winner = "UDMA"
			if crossover < 0 {
				crossover = size
			}
		}
		tbl.AddRow(stats.Bytes(size), fmt.Sprintf("%.1f", pioUS),
			fmt.Sprintf("%.1f", udmaUS), winner)
	}
	res.Series = append(res.Series, pioSeries, udmaSeries)
	res.Tables = append(res.Tables, tbl)

	pioSmall, _ := pioSeries.Y(16)
	udmaSmall, _ := udmaSeries.Y(16)
	pioBig, _ := pioSeries.Y(4096)
	udmaBig, _ := udmaSeries.Y(4096)
	res.check("PIO wins at 16 B", pioSmall < udmaSmall,
		"PIO %.1f µs vs UDMA %.1f µs", pioSmall, udmaSmall)
	res.check("UDMA wins at 4 KB", udmaBig < pioBig,
		"UDMA %.1f µs vs PIO %.1f µs", udmaBig, pioBig)
	res.check("crossover exists between 16 B and 4 KB", crossover > 16 && crossover <= 4096,
		"crossover at %d bytes", crossover)
	res.Notes = append(res.Notes,
		"PIO words cost 1 µs each on EISA (4 MB/s); the burst engine streams at 33 MB/s but pays per-transfer startup")
	return res, nil
}

// nicLatency measures the one-way latency of a single message: sender
// starts at a known time; the receive-side NIC records its DMA
// completion time. Cross-node clock skew is avoided by warming the
// path and reading both clocks after a full drain.
func nicLatency(size int, pio bool) (float64, error) {
	c := cluster.New(cluster.Config{
		Nodes:   2,
		Machine: machine.Config{RAMFrames: 64},
		NIC:     nic.Config{NIPTPages: 16, PIOWindow: true},
		Window:  500, // tight lockstep for latency accuracy
	})
	defer c.Shutdown()
	costs := c.Nodes[0].Costs

	if err := udmalib.MapSendWindow(c.NICs[0], 0, 1, []uint32{40}); err != nil {
		return 0, err
	}

	var sendStart sim.Cycles
	err := runSender(c, func(p *kernel.Proc) error {
		d, err := udmalib.Open(p, c.NICs[0], true)
		if err != nil {
			return err
		}
		va, err := p.Alloc(4096)
		if err != nil {
			return err
		}
		payload := workload.Payload(size, 5)
		if err := p.WriteBuf(va, payload); err != nil {
			return err
		}
		pioBase := d.Base() + addr.VAddr(uint32(c.NICs[0].NIPTSize())<<addr.PageShift)

		send := func() error {
			if pio {
				// The FIFO protocol: destination word, data words, launch.
				if err := p.Store(pioBase+nic.PIORegDest, udmalib.WindowOff(0, 0)); err != nil {
					return err
				}
				data, err := p.ReadBuf(va, size)
				if err != nil {
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
			return d.SendAsync(va, udmalib.WindowOff(0, 0), size)
		}
		// Warm mappings (fault costs out of the measured path), then a
		// settle so warm-up traffic fully drains.
		if err := send(); err != nil {
			return err
		}
		p.Sleep(200_000)
		sendStart = p.Now()
		return send()
	})
	if err != nil {
		return 0, err
	}
	st := c.NICs[1].Stats()
	if st.PacketsReceived < 2 {
		return 0, fmt.Errorf("only %d packets received", st.PacketsReceived)
	}
	if st.LastRecvAt < sendStart {
		return 0, fmt.Errorf("receive completed before send started (clock skew %d vs %d)",
			st.LastRecvAt, sendStart)
	}
	return costs.Micros(st.LastRecvAt - sendStart), nil
}
