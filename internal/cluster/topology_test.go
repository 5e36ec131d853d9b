package cluster_test

import (
	"errors"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/nic"
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
// MailPending is false and the packet is visible in the backplane
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

	// Low enough that the spinners are still going, high enough that the
	// send has been issued (first windows cover setup + the send).
	if err := c.Run(400_000); !errors.Is(err, cluster.ErrLimit) {
		t.Fatalf("cluster run: %v, want ErrLimit", err)
	}
	if sendErr != nil || recvErr != nil {
		t.Fatalf("procs: send=%v recv=%v", sendErr, recvErr)
	}
	if c.Backplane.MailPending() {
		t.Fatalf("limit-bounded Run left deferred mail parked")
	}
	if pkts, _, _, _ := c.Backplane.Stats(); pkts == 0 {
		t.Fatalf("backplane ledger empty after limit flush")
	}
}
