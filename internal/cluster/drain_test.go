package cluster_test

import (
	"fmt"
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/raceflag"
	"shrimp/internal/sim"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// referenceDrain is the drain's reference semantics: one merged event
// loop that, on every iteration, flushes the mailboxes, finds the
// earliest pending event on any clock and advances every clock to it.
// DrainHardware must leave a cluster exactly as this loop does.
func referenceDrain(c *cluster.Cluster) {
	for {
		c.Backplane.Flush()
		next := sim.Forever
		for _, n := range c.Nodes {
			if at, ok := n.Clock.NextEventAt(); ok && at < next {
				next = at
			}
		}
		if next == sim.Forever {
			return
		}
		for _, n := range c.Nodes {
			n.Clock.AdvanceTo(next)
		}
	}
}

// drainRegime builds a seeded cluster and workload whose run ends with
// hardware still in flight. The seed picks one of four regimes — raw
// incast on a 4×4 mesh, raw incast on a 4×4 torus, a lossy reliable
// fabric (drops, duplicates, delays and corruption, so the drain carries
// ACKs and retransmits) and a reliable fabric under a crash plan — and
// one of workers 1 and 2; it draws everything else. The same seed
// always builds the same cluster.
func drainRegime(t *testing.T, seed uint64) (*cluster.Cluster, string) {
	t.Helper()
	rng := sim.NewRNG(seed)
	kind := []string{"mesh incast", "torus incast", "lossy", "crash"}[seed%4]
	cfg := cluster.Config{
		Nodes:   16,
		Workers: 1 + int(seed/4)%2,
		Machine: machine.Config{RAMFrames: 64},
		NIC:     nic.Config{NIPTPages: 8},
		Metrics: telemetry.New(), // for the trace rings
	}
	msgs := 1 + rng.Intn(3)
	size := 1024 * (1 + rng.Intn(4))
	bpc := []float64{0.1, 0.3, 0}[rng.Intn(3)]
	switch kind {
	case "mesh incast":
		cfg.Topology = interconnect.Topology{Kind: interconnect.KindMesh, Width: 4, LinkBytesPerCyc: bpc}
	case "torus incast":
		cfg.Topology = interconnect.Topology{Kind: interconnect.KindTorus, Width: 4, LinkBytesPerCyc: bpc}
	default:
		cfg.Nodes = 4 + rng.Intn(5)
		cfg.Window = sim.Cycles(500 + rng.Intn(4000))
		cfg.Topology.LinkBytesPerCyc = bpc
		msgs = 4 + rng.Intn(9) // past the protocol window, so ACKs release sends
		window := 2 + rng.Intn(4)
		cfg.NIC.Reliability = nic.ReliabilityConfig{Enabled: true, Window: window, MaxPending: 2 * window}
		cfg.Fault = interconnect.FaultPlan{
			Seed:        seed,
			DropRate:    0.02 + 0.15*rng.Float64(),
			DupRate:     0.05 * rng.Float64(),
			CorruptRate: 0.05 * rng.Float64(),
			DelayRate:   0.1 * rng.Float64(),
		}
		if kind == "crash" {
			cfg.Crash = cluster.CrashPlan{Seed: seed, MTBF: sim.Cycles(50_000 + rng.Intn(200_000)),
				MTTR: 30_000, MaxCrashes: 1 + rng.Intn(2)}
		}
	}
	name := fmt.Sprintf("seed %d: %s, %d nodes, workers %d, %d×%d B, links %g B/cyc",
		seed, kind, cfg.Nodes, cfg.Workers, msgs, size, bpc)

	c := cluster.New(cfg)
	for s := 1; s < cfg.Nodes; s++ {
		dst := 0 // incast: every other node sends into node 0
		if cfg.NIC.Reliability.Enabled {
			dst = (s + 1 + rng.Intn(cfg.Nodes-1)) % cfg.Nodes
			if dst == s {
				dst = 0
			}
		}
		if err := udmalib.MapSendWindow(c.NICs[s], 0, dst, []uint32{48}); err != nil {
			t.Fatal(err)
		}
		// Every send error (queue-full, a peer down, a broken link) is
		// part of the regime: the sender moves on to its next message.
		sender := workload.Sender{Dev: c.NICs[s], Size: size, Seed: byte(s), Messages: msgs,
			Done: func(sim.Cycles, error) error { return nil }}
		c.Nodes[s].Kernel.Spawn("send", func(p *kernel.Proc) { sender.Run(p) })
	}
	return c, name
}

// runToDrain runs c's lockstep windows until all software has exited,
// stopping exactly where Run would start the drain.
func runToDrain(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	err := c.RunHooks(sim.Forever, cluster.Hooks{
		AfterStep: func(err error) (bool, error) { return c.AllIdle(), err },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.AllIdle() {
		t.Fatal("run stopped before all software exited")
	}
}

// drainObservation is one named readout of post-drain state.
type drainObservation struct{ what, value string }

// observeDrain reads everything a drain can change: each node's clock,
// NIC and kernel stats and trace ring, and the backplane's launch,
// fault and per-link ledgers.
func observeDrain(c *cluster.Cluster) []drainObservation {
	var out []drainObservation
	add := func(what, format string, args ...any) {
		out = append(out, drainObservation{what, fmt.Sprintf(format, args...)})
	}
	for i, n := range c.Nodes {
		add(fmt.Sprintf("node %d clock", i), "%d", n.Clock.Now())
		add(fmt.Sprintf("node %d NIC stats", i), "%+v", c.NICs[i].Stats())
		add(fmt.Sprintf("node %d kernel stats", i), "%+v", n.Kernel.Stats())
	}
	pkts, bytes, rpkts, rbytes := c.Backplane.Stats()
	add("backplane stats", "packets=%d bytes=%d retrans=%d/%d", pkts, bytes, rpkts, rbytes)
	add("backplane fault stats", "%+v", c.Backplane.FaultStats())
	add("backplane link stats", "%+v", c.Backplane.LinkStats())
	for i, n := range c.Nodes {
		evs := n.Tracer.Events()
		add(fmt.Sprintf("node %d trace length", i), "%d", len(evs))
		for k, e := range evs {
			add(fmt.Sprintf("node %d trace event %d", i, k), "%v", e)
		}
	}
	return out
}

// TestDrainMatchesReference is the drain's differential test: over
// seeded regimes, two identical clusters run to the end of their
// software, one drains with DrainHardware and one with referenceDrain,
// and every readout of the two must agree. A failure names the first
// readout that differs.
func TestDrainMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		got, name := drainRegime(t, seed)
		want, _ := drainRegime(t, seed)
		runToDrain(t, got)
		runToDrain(t, want)
		before := want.MaxNow()
		if err := got.DrainHardware(sim.Forever); err != nil {
			t.Fatalf("%s: drain: %v", name, err)
		}
		referenceDrain(want)
		if want.MaxNow() == before {
			t.Fatalf("%s: nothing was left to drain; the regime tests nothing", name)
		}
		g, w := observeDrain(got), observeDrain(want)
		for k := range w {
			if k >= len(g) || g[k] != w[k] {
				gv := "(missing)"
				if k < len(g) {
					gv = g[k].what + ": " + g[k].value
				}
				t.Fatalf("%s: the drain differs from the reference at %s\n  drain:     %s\n  reference: %s",
					name, w[k].what, gv, w[k].value)
			}
		}
		if len(g) != len(w) {
			t.Fatalf("%s: the drain has %d readouts, the reference %d", name, len(g), len(w))
		}
		got.Shutdown()
		want.Shutdown()
	}
}

// TestDrainAllocs guards the drain loop itself: flushing, scanning and
// advancing clocks allocate nothing. The events are prebuilt no-op
// callbacks on an idle cluster, so every allocation would be the
// loop's: a stretch of single-node events on node 0, then an instant
// due on nodes 1 and 2 at once, then node 0 again.
func TestDrainAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("exact alloc counts are meaningless under -race")
	}
	c := cluster.New(cluster.Config{Nodes: 4, NIC: nic.Config{NIPTPages: 4}})
	defer c.Shutdown()
	tick := func() {}
	drain := func() {
		base := c.MaxNow()
		for k := sim.Cycles(1); k <= 8; k++ {
			c.Nodes[0].Clock.Schedule(base+10*k, tick)
		}
		c.Nodes[1].Clock.Schedule(base+35, tick)
		c.Nodes[2].Clock.Schedule(base+35, tick)
		if err := c.DrainHardware(sim.Forever); err != nil {
			t.Fatal(err)
		}
		for i, n := range c.Nodes {
			if n.Clock.Now() != base+80 {
				t.Fatalf("node %d clock %d after the drain, want %d", i, n.Clock.Now(), base+80)
			}
		}
	}
	drain() // grow the event slabs
	if n := testing.AllocsPerRun(100, drain); n != 0 {
		t.Fatalf("DrainHardware allocates %.1f times per drain, want 0", n)
	}
}
