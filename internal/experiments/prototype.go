package experiments

import (
	"fmt"

	"shrimp/internal/cluster"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/stats"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// RunPrototype models the paper's hardware status — "we have a
// four-processor prototype running" — as a scaling experiment: one
// sender pair vs all four nodes sending concurrently. Each node's CPU
// initiates on its own clock and each node's NIC injects into the
// shared backplane, so the aggregate should approach N× a single pair
// until the mesh links saturate.
func RunPrototype() (*Result, error) {
	res := &Result{
		ID:    "e10",
		Title: "Four-node prototype: aggregate deliberate-update bandwidth",
		Paper: "a 4-node prototype runs protected user-level communication concurrently",
	}

	tbl := stats.NewTable("Concurrent senders on a 4-node mesh (32 × 4 KB each)",
		"configuration", "aggregate MB/s", "scaling vs 1 sender")
	configs := []struct {
		name  string
		pairs [][2]int
	}{
		{"1 sender (0→1)", [][2]int{{0, 1}}},
		{"2 disjoint pairs (0→1, 2→3)", [][2]int{{0, 1}, {2, 3}}},
		{"4-node ring (every node sends and receives)", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
	}
	var bws []float64
	for _, cfg := range configs {
		bw, err := prototypeRun(cfg.pairs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		bws = append(bws, bw)
		tbl.AddRow(cfg.name, fmt.Sprintf("%.1f", bw), fmt.Sprintf("%.2fx", bw/bws[0]))
	}
	res.Tables = append(res.Tables, tbl)

	res.check("two disjoint pairs nearly double aggregate", bws[1] > bws[0]*1.7,
		"%.1f vs %.1f MB/s", bws[1], bws[0])
	res.check("full ring beats two pairs despite shared buses", bws[2] > bws[1]*1.02,
		"%.1f vs %.1f MB/s", bws[2], bws[1])
	res.Notes = append(res.Notes,
		"senders are CPU/EISA-limited (~31 MB/s each), the Paragon links run at 175 MB/s: disjoint pairs scale linearly",
		"in the ring every node's single EISA bus carries both its outgoing bursts and its incoming receive DMAs, so per-sender throughput roughly halves — a real property of the bus-attached SHRIMP design")
	return res, nil
}

// prototypeRun has each (src→dst) pair stream 32 4 KB pages and returns
// aggregate bandwidth (total bytes over the slowest sender's elapsed
// time).
func prototypeRun(pairs [][2]int) (float64, error) {
	const nodes = 4
	const messages = 32
	const size = 4096
	c := cluster.New(cluster.Config{
		Nodes:   nodes,
		Machine: machine.Config{RAMFrames: 96},
		NIC:     nic.Config{NIPTPages: 16},
	})
	defer c.Shutdown()
	costs := c.Nodes[0].Costs

	senders := make([]*workload.Sender, nodes)
	for _, pair := range pairs {
		s, dst := pair[0], pair[1]
		// Receive frames: raw frames 48.. on the destination.
		if err := udmalib.MapSendWindow(c.NICs[s], 0, dst, []uint32{48}); err != nil {
			return 0, err
		}
		senders[s] = &workload.Sender{Dev: c.NICs[s], Size: size, Seed: byte(s + 1), Messages: messages}
	}
	if _, err := runSenders(c, 5_000_000_000, senders, nil); err != nil {
		return 0, err
	}
	var slowest float64
	for _, pair := range pairs {
		if t := costs.Seconds(c.Nodes[pair[0]].Clock.Now()); t > slowest {
			slowest = t
		}
	}
	total := float64(len(pairs) * messages * size)
	return total / slowest / 1e6, nil
}
