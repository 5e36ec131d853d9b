package experiments

import (
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// RunAutoVsDeliberate is an extension experiment (e11): SHRIMP's two
// transfer strategies side by side. The paper retains "the automatic
// update transfer strategy ... which still relies upon fixed mappings
// between source and destination pages" alongside UDMA deliberate
// update (Section 9); the SHRIMP literature's rule of thumb is that
// automatic update wins fine-grained scattered writes (no initiation at
// all) while deliberate update wins bulk transfers (burst DMA instead
// of word-by-word write-through).
func RunAutoVsDeliberate() (*Result, error) {
	res := &Result{
		ID:    "e11",
		Title: "Automatic update vs deliberate update (extension)",
		Paper: "fixed-mapping automatic update for fine-grain writes; UDMA deliberate update for bulk",
	}

	type workloadKind struct {
		name   string
		runs   int // scattered runs
		runLen int // contiguous words per run
	}
	cases := []workloadKind{
		{"16 scattered words", 16, 1},
		{"16 runs × 8 words", 16, 8},
		{"one 4 KB page", 1, 1024},
	}

	tbl := stats.NewTable("Sender cost to publish updates to a remote page (µs)",
		"update pattern", "automatic update", "deliberate update", "winner")
	var fineAuto, fineDelib, bulkAuto, bulkDelib float64
	for i, wk := range cases {
		auto, err := updateCost(wk.runs, wk.runLen, true)
		if err != nil {
			return nil, fmt.Errorf("auto %s: %w", wk.name, err)
		}
		delib, err := updateCost(wk.runs, wk.runLen, false)
		if err != nil {
			return nil, fmt.Errorf("deliberate %s: %w", wk.name, err)
		}
		winner := "automatic"
		if delib < auto {
			winner = "deliberate"
		}
		tbl.AddRow(wk.name, fmt.Sprintf("%.1f", auto), fmt.Sprintf("%.1f", delib), winner)
		if i == 0 {
			fineAuto, fineDelib = auto, delib
		}
		if i == len(cases)-1 {
			bulkAuto, bulkDelib = auto, delib
		}
	}
	res.Tables = append(res.Tables, tbl)

	res.check("automatic update wins scattered single words", fineAuto < fineDelib,
		"%.1f µs vs %.1f µs", fineAuto, fineDelib)
	res.check("deliberate update wins bulk pages", bulkDelib < bulkAuto,
		"%.1f µs vs %.1f µs", bulkDelib, bulkAuto)
	res.Notes = append(res.Notes,
		"automatic-update pages are write-through (10 cycles/store on the Xpress bus model); deliberate update pays per-transfer initiation but streams at EISA burst rate",
		"extension: this comparison is from the SHRIMP project literature, not a table in the HPCA'96 paper")
	return res, nil
}

// updateCost measures the sender-side time to publish runs×runLen words
// to a remote page and (for automatic update) flush them out.
func updateCost(runs, runLen int, auto bool) (float64, error) {
	c := cluster.New(cluster.Config{Nodes: 2, NIC: nic.Config{NIPTPages: 8}})
	defer c.Shutdown()
	costs := c.Nodes[0].Costs

	if err := udmalib.MapSendWindow(c.NICs[0], 0, 1, []uint32{40}); err != nil {
		return 0, err
	}

	var elapsed sim.Cycles
	err := runSender(c, func(p *kernel.Proc) error {
		src, err := p.Alloc(addr.PageSize)
		if err != nil {
			return err
		}
		if err := p.WriteBuf(src, workload.Payload(addr.PageSize, 1)); err != nil {
			return err
		}
		var d *udmalib.Dev
		if auto {
			if err := p.MapAutoUpdate(c.NICs[0], src, 1, 0); err != nil {
				return err
			}
		} else {
			d, err = udmalib.Open(p, c.NICs[0], true)
			if err != nil {
				return err
			}
			// Warm the proxy mappings.
			if err := d.Send(src, 0, 64); err != nil {
				return err
			}
		}

		// The runs are spread across the page; each run is runLen
		// contiguous words.
		stride := addr.PageSize / runs
		start := p.Now()
		for r := 0; r < runs; r++ {
			off := r * stride
			if auto {
				for w := 0; w < runLen; w++ {
					if err := p.Store(src+addr.VAddr(off+w*4), uint32(r<<16|w)); err != nil {
						return err
					}
				}
			} else {
				if err := d.Send(src+addr.VAddr(off), uint32(off), runLen*4); err != nil {
					return err
				}
			}
		}
		if auto {
			c.NICs[0].FlushAutoUpdate()
		}
		elapsed = p.Now() - start
		return nil
	})
	if err != nil {
		return 0, err
	}
	return costs.Micros(elapsed), nil
}
