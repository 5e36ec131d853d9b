package cluster_test

import (
	"errors"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/nic"
	"shrimp/internal/raceflag"
	"shrimp/internal/sim"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// TestRunFlushesMailAtLimit is the regression test for the parked-mail
// leak: a limit-bounded Run used to return with the final window's
// cross-node packets still sitting in the outbox mailboxes, never
// merged onto the receiver clocks — so post-run reads of backplane and
// NIC state undercounted in-flight traffic. Run must flush (account)
// the mail before returning at the limit.
func TestRunFlushesMailAtLimit(t *testing.T) {
	// A send launches about every 8k cycles, so with 100k-cycle windows
	// the final window launches some.
	c := cluster.New(cluster.Config{Nodes: 2, NIC: nic.Config{NIPTPages: 8}, Window: 100_000})
	defer c.Shutdown()

	ready := make(chan []uint32, 1)
	c.Nodes[0].Kernel.Spawn("recv", func(p *kernel.Proc) {
		va, _ := p.Alloc(addr.PageSize)
		pfns, err := udmalib.ExportBuffer(c.Nodes[0].Kernel, p, va, 1)
		if err != nil {
			t.Error(err)
			return
		}
		ready <- pfns
		for { // poll forever; the run ends at the limit
			if _, err := p.Load(va); err != nil {
				return
			}
			p.Compute(500)
		}
	})
	c.Nodes[1].Kernel.Spawn("send", func(p *kernel.Proc) {
		pfns := waitChan(p, ready)
		if err := udmalib.MapSendWindow(c.NICs[1], 0, 0, pfns); err != nil {
			t.Error(err)
			return
		}
		d, err := udmalib.Open(p, c.NICs[1], true)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := p.Alloc(addr.PageSize)
		p.Store(src, 1)
		for { // send forever so every window — including the last — parks mail
			if err := d.Send(src, 0, addr.PageSize); err != nil {
				return
			}
		}
	})

	if err := c.Run(3_000_000); !errors.Is(err, cluster.ErrLimit) {
		t.Fatalf("run: %v, want ErrLimit", err)
	}
	pkts, _, _, _ := c.Backplane.Stats()
	if pkts == 0 {
		t.Fatal("no traffic generated; test rig is broken")
	}
	if got := arrivalsWithoutFlush(c, 0); got != pkts {
		t.Fatalf("receiver got %d of %d launched packets: Run returned at limit with deferred mail still parked (unflushed, unaccounted)", got, pkts)
	}
}

// TestDrainStopsAtLimit: Run's limit bounds the drain as well as the
// lockstep windows. On a fabric far slower than the sender, the sender
// exits long before its messages are delivered, so the limit falls in
// the drain. The drain must fire no event past the limit, bring both
// clocks to it and return ErrLimit; it used to run on to the last
// delivery (cycle 2,065,454, every byte received) and return nil.
func TestDrainStopsAtLimit(t *testing.T) {
	const limit = 500_000
	c := cluster.New(cluster.Config{
		Nodes:    2,
		Topology: interconnect.Topology{LinkBytesPerCyc: 0.1},
		NIC:      nic.Config{NIPTPages: 8},
	})
	defer c.Shutdown()
	if err := udmalib.MapSendWindow(c.NICs[1], 0, 0, []uint32{40}); err != nil {
		t.Fatal(err)
	}
	var sendErr error
	c.Nodes[1].Kernel.Spawn("send", func(p *kernel.Proc) {
		_, _, sendErr = workload.Sender{Dev: c.NICs[1], Size: addr.PageSize, Seed: 1, Messages: 50}.Run(p)
	})

	if err := c.Run(limit); !errors.Is(err, cluster.ErrLimit) {
		t.Fatalf("run: %v, want ErrLimit", err)
	}
	if sendErr != nil {
		t.Fatalf("sender: %v", sendErr)
	}
	for i, n := range c.Nodes {
		if now := n.Clock.Now(); now != limit {
			t.Errorf("node %d clock %d, want the limit %d", i, now, limit)
		}
	}
	if _, sent, _, _ := c.Backplane.Stats(); sent != 50*addr.PageSize {
		t.Fatalf("wire carried %d bytes, want all %d launched before the limit", sent, 50*addr.PageSize)
	}
	if got := c.NICs[0].Stats().BytesReceived; got != 45_056 {
		t.Fatalf("receiver holds %d bytes, want the 45,056 delivered by cycle %d", got, limit)
	}
}

// arrivalsWithoutFlush fires receiver node rx's own clock far past
// every other node, with no Flush, and returns the packets its NIC
// then holds. A packet reaches rx's clock only through a Flush, so
// after a limit-bounded Run this equals every packet launched to rx
// only if Run flushed the final window's mail before it returned.
func arrivalsWithoutFlush(c *cluster.Cluster, rx int) uint64 {
	c.Nodes[rx].Clock.AdvanceTo(c.MaxNow() + 10_000_000)
	return c.NICs[rx].Stats().PacketsReceived
}

// TestRunSkipsNoOpWindows pins the horizon skip-ahead: a process that
// sleeps far beyond the window size used to cost ceil(sleep/window)
// empty barrier rounds (flush nothing, run nothing, join). Run must
// jump the horizon to the next runnable time instead. Before the fix
// this workload took >5000 rounds; with re-basing and skip-ahead it
// takes a handful.
func TestRunSkipsNoOpWindows(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, NIC: nic.Config{NIPTPages: 4}, Window: 10_000})
	defer c.Shutdown()

	var woke bool
	c.Nodes[0].Kernel.Spawn("sleeper", func(p *kernel.Proc) {
		p.Compute(1_000)
		p.Sleep(50_000_000) // 5000 windows of nothing
		p.Compute(1_000)
		woke = true
	})

	if err := c.Run(sim.Forever); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !woke {
		t.Fatal("sleeper never woke")
	}
	if c.MaxNow() < 50_000_000 {
		t.Fatalf("MaxNow = %d, want >= 50M", c.MaxNow())
	}
	if r := c.Rounds(); r > 50 {
		t.Fatalf("Run used %d barrier rounds for a sparse timeline, want <= 50 (no-op windows not skipped)", r)
	}
}

// TestRunCatchesOvershootInOneRound covers the re-based horizon: a
// processor whose compute quantum overshoots the window by many
// multiples must be caught up in O(1) rounds, not ceil(overshoot/window)
// no-op rounds (the special case PR 3's deadlock detection papered
// over, now deleted).
func TestRunCatchesOvershootInOneRound(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, NIC: nic.Config{NIPTPages: 4}, Window: 10_000})
	defer c.Shutdown()
	c.Nodes[0].Kernel.Spawn("burst", func(p *kernel.Proc) {
		p.Compute(25_000_000) // one quantum, 2500 windows long
	})
	if err := c.Run(sim.Forever); err != nil {
		t.Fatalf("run: %v", err)
	}
	if r := c.Rounds(); r > 50 {
		t.Fatalf("Run used %d rounds to absorb a single overshooting quantum, want <= 50", r)
	}
}

// TestStepSteadyStateAllocs guards the pooled barrier: once warmed up,
// a Step round on an idle cluster (flush, horizon computation, fan-out,
// coast, join) must not allocate. This is what makes thousands of
// windows per run cheap.
func TestStepSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("exact alloc counts are meaningless under -race")
	}
	c := cluster.New(cluster.Config{Nodes: 4, Workers: 4, NIC: nic.Config{NIPTPages: 4}})
	defer c.Shutdown()
	// No processes: every kernel is all-exited, so a window is pure
	// barrier machinery (the hot path minus workload noise).
	horizon := sim.Cycles(0)
	step := func() {
		horizon += 10_000
		if _, err := c.Step(horizon); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	step() // warm up pool and scratch
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("Step allocates %.1f times per barrier round, want 0", n)
	}
}

// TestRunHooksAllocs guards the hooked loop: on an idle cluster every Run
// is exactly one barrier round, and with both hooks set that round must
// still allocate nothing — the hooks are plain func fields built once
// per run, not per round.
func TestRunHooksAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("exact alloc counts are meaningless under -race")
	}
	c := cluster.New(cluster.Config{Nodes: 4, Workers: 4, NIC: nic.Config{NIPTPages: 4}})
	defer c.Shutdown()
	var before, after int
	hooks := cluster.Hooks{
		BeforeStep: func(uint64) { before++ },
		AfterStep: func(err error) (bool, error) {
			after++
			return false, err
		},
	}
	run := func() {
		if err := c.RunHooks(sim.Forever, hooks); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	run() // warm up pool and scratch
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("hooked Run allocates %.1f times per barrier round, want 0", n)
	}
	if rounds := c.Rounds(); before != int(rounds) || after != int(rounds) {
		t.Fatalf("hooks ran %d/%d times over %d rounds, want once each per round", before, after, rounds)
	}
}

// TestNextRunnable checks the skip-ahead oracle directly: it must see
// scheduled events, overshot live clocks, and report Forever only when
// nothing can ever run.
func TestNextRunnable(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, NIC: nic.Config{NIPTPages: 4}})
	defer c.Shutdown()
	c.Nodes[0].Kernel.Spawn("sleeper", func(p *kernel.Proc) {
		p.Sleep(1_000_000)
	})
	// Run one window: the sleeper schedules its wake event and blocks.
	if _, err := c.Step(10_000); err != nil {
		t.Fatal(err)
	}
	next := c.NextRunnable(10_000)
	if next == sim.Forever {
		t.Fatal("NextRunnable missed the sleeper's wake event")
	}
	if next > 1_001_000 {
		t.Fatalf("NextRunnable = %d, want about the wake time", next)
	}
}
