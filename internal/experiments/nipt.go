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

// RunNIPT reproduces the Section 8 NIPT description: "the rightmost 15
// bits of the page number are used to index directly into the Network
// Interface Page Table ... Since the NIPT is indexed with 15 bits, it
// can hold 32K different destination pages." We fill tables of
// increasing size, send through randomly chosen entries, and show the
// translation cost is a direct index — flat in table size and entry
// position.
func RunNIPT() (*Result, error) {
	res := &Result{
		ID:    "e9",
		Title: "NIPT translation and capacity",
		Paper: "15-bit direct index, 32 K destination pages, per-packet lookup cost constant",
	}

	sizes := []uint32{64, 1024, 8192, 32768}
	tbl := stats.NewTable("Send cost through a NIPT of varying size (256 B messages)",
		"NIPT entries", "entries exercised", "µs/send", "all payloads delivered")

	var costPerSize []float64
	for _, entries := range sizes {
		us, exercised, ok, err := niptRun(entries)
		if err != nil {
			return nil, fmt.Errorf("nipt %d: %w", entries, err)
		}
		costPerSize = append(costPerSize, us)
		tbl.AddRow(fmt.Sprintf("%d", entries), fmt.Sprintf("%d", exercised),
			fmt.Sprintf("%.1f", us), fmt.Sprintf("%v", ok))
		if !ok {
			res.check(fmt.Sprintf("delivery intact at %d entries", entries), false, "corrupt")
		}
	}
	res.Tables = append(res.Tables, tbl)

	res.check("32 K-entry NIPT supported (15-bit index)", sizes[len(sizes)-1] == 32768,
		"largest table: %d entries", sizes[len(sizes)-1])
	flat := true
	for _, us := range costPerSize {
		if us > costPerSize[0]*1.1 || us < costPerSize[0]*0.9 {
			flat = false
		}
	}
	res.check("translation cost flat in table size (direct index)", flat,
		"%.1f µs at 64 entries vs %.1f µs at 32 K", costPerSize[0], costPerSize[len(costPerSize)-1])
	return res, nil
}

// niptRun installs 'entries' NIPT entries that scatter across 16
// receiver frames, sends one message through a pseudo-random sample of
// entries, and verifies each landed where its entry pointed.
func niptRun(entries uint32) (usPerSend float64, exercised int, intact bool, err error) {
	c := cluster.New(cluster.Config{
		Nodes:   2,
		Machine: machine.Config{RAMFrames: 64},
		NIC:     nic.Config{NIPTPages: entries},
	})
	defer c.Shutdown()
	costs := c.Nodes[0].Costs

	const recvFrames = 16
	const msg = 256
	for i := uint32(0); i < entries; i++ {
		if err := c.NICs[0].SetNIPT(i, nic.NIPTEntry{
			Valid:    true,
			DestNode: 1,
			DestPFN:  32 + i%recvFrames,
		}); err != nil {
			return 0, 0, false, err
		}
	}

	rng := sim.NewRNG(42)
	sample := make([]uint32, 24)
	for i := range sample {
		sample[i] = rng.Uint32n(entries)
	}

	var elapsed sim.Cycles
	err = runSender(c, func(p *kernel.Proc) error {
		d, err := udmalib.Open(p, c.NICs[0], true)
		if err != nil {
			return err
		}
		va, err := p.Alloc(4096)
		if err != nil {
			return err
		}
		// Warm-up through entry 0.
		if err := p.WriteBuf(va, workload.Payload(msg, 0)); err != nil {
			return err
		}
		if err := d.Send(va, udmalib.WindowOff(0, 0), msg); err != nil {
			return err
		}
		start := p.Now()
		for _, e := range sample {
			if err := p.WriteBuf(va, workload.Payload(msg, byte(e))); err != nil {
				return err
			}
			if err := d.Send(va, udmalib.WindowOff(e, 0), msg); err != nil {
				return err
			}
		}
		elapsed = p.Now() - start
		return nil
	})
	if err != nil {
		return 0, 0, false, err
	}
	// The LAST message into each frame wins; verify frame contents
	// match the latest sender whose entry pointed there.
	lastSeed := make(map[uint32]byte)
	for _, e := range sample {
		lastSeed[32+e%recvFrames] = byte(e)
	}
	intact = true
	for pfn, seed := range lastSeed {
		want := workload.Payload(msg, seed)
		got, rerr := c.Nodes[1].RAM.Read(frameAddr(pfn), msg)
		if rerr != nil {
			return 0, 0, false, rerr
		}
		for i := range want {
			if got[i] != want[i] {
				intact = false
			}
		}
	}
	return costs.Micros(elapsed) / float64(len(sample)), len(sample), intact, nil
}

func frameAddr(pfn uint32) addr.PAddr { return addr.FrameAddr(pfn) }
