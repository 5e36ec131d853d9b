package cluster_test

import (
	"errors"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/udmalib"
)

// TestClusterTopologyPlumbing checks that the cluster hands the declared
// topology through to the backplane verbatim: a torus config yields a
// torus fabric, and the zero value still means "near-square mesh".
func TestClusterTopologyPlumbing(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes:    8,
		Topology: interconnect.Torus(8),
		NIC:      nic.Config{NIPTPages: 16},
	})
	defer c.Shutdown()
	topo := c.Backplane.Topology()
	if topo.Kind != interconnect.KindTorus || topo.Nodes != 8 {
		t.Fatalf("backplane topology = %+v, want 8-node torus", topo)
	}

	d := cluster.New(cluster.Config{Nodes: 5, NIC: nic.Config{NIPTPages: 16}})
	defer d.Shutdown()
	if got := d.Backplane.Topology(); got.Kind != interconnect.KindMesh || got.Nodes != 5 {
		t.Fatalf("default topology = %+v, want 5-node mesh", got)
	}
}

// TestClusterTopologyNodeMismatchPanics: declaring a fabric sized for a
// different node count than the cluster must be a construction error,
// not a silent reshape.
func TestClusterTopologyNodeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("cluster.New accepted Topology.Nodes=4 with Nodes=8")
		}
	}()
	cluster.New(cluster.Config{
		Nodes:    8,
		Topology: interconnect.Mesh(4),
		NIC:      nic.Config{NIPTPages: 16},
	})
}

// TestLimitBoundedRunFlushesMail drives a cluster into its Run limit
// while a send from the final window is still parked in the deferred
// mailboxes, and checks the limit path flushes it: after Run returns,
// the packet is on the receiver's clock and visible in the backplane
// ledger even though no one ever went idle.
func TestLimitBoundedRunFlushesMail(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes:  2,
		Window: 2000,
		NIC:    nic.Config{NIPTPages: 16},
	})
	defer c.Shutdown()

	const msgBytes = addr.PageSize
	recvReady := make(chan []uint32, 1)
	var recvErr, sendErr error

	c.Nodes[0].Kernel.Spawn("recv", func(p *kernel.Proc) {
		va, err := p.Alloc(msgBytes)
		if err != nil {
			recvErr = err
			return
		}
		pfns, err := udmalib.ExportBuffer(c.Nodes[0].Kernel, p, va, 1)
		if err != nil {
			recvErr = err
			return
		}
		recvReady <- pfns
		for { // poll forever: the cluster never goes idle
			p.Compute(1000)
		}
	})
	c.Nodes[1].Kernel.Spawn("send", func(p *kernel.Proc) {
		pfns := waitChan(p, recvReady)
		if err := udmalib.MapSendWindow(c.NICs[1], 0, 0, pfns); err != nil {
			sendErr = err
			return
		}
		d, err := udmalib.Open(p, c.NICs[1], true)
		if err != nil {
			sendErr = err
			return
		}
		va, _ := p.Alloc(msgBytes)
		if err := d.Send(va, udmalib.WindowOff(0, 0), msgBytes); err != nil {
			sendErr = err
			return
		}
		for {
			p.Compute(1000)
		}
	})

	// Raise the limit one window at a time, so that each Run covers
	// about one window: the Run that first sees the send launched
	// launched it in that window, and the packet is parked mail when
	// the Run reaches its limit. The spinners keep going throughout.
	var pkts uint64
	for limit := sim.Cycles(2000); pkts == 0; limit += 2000 {
		if limit > 400_000 {
			t.Fatalf("backplane ledger still empty at cycle %d; test rig is broken", limit)
		}
		if err := c.Run(limit); !errors.Is(err, cluster.ErrLimit) {
			t.Fatalf("cluster run: %v, want ErrLimit", err)
		}
		pkts, _, _, _ = c.Backplane.Stats()
	}
	if sendErr != nil || recvErr != nil {
		t.Fatalf("procs: send=%v recv=%v", sendErr, recvErr)
	}
	if got := arrivalsWithoutFlush(c, 0); got != pkts {
		t.Fatalf("receiver got %d of %d launched packets: limit-bounded Run left deferred mail parked", got, pkts)
	}
}
