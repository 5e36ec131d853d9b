package cluster_test

import (
	"fmt"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/nic"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// TestNIPTLookupsCountEveryPath: every data-path NIPT access is one
// lookup that either hits or misses, whichever path made it. Node 0
// sends by UDMA, by the PIO FIFO and by automatic update through a
// two-entry NIPT cache over three entries, so lookups both hit and
// miss. The snapshot must report nic_nipt_lookups == nipt_hits +
// nipt_misses on every node.
func TestNIPTLookupsCountEveryPath(t *testing.T) {
	reg := telemetry.New()
	c := cluster.New(cluster.Config{
		Nodes:   2,
		NIC:     nic.Config{NIPTPages: 8, PIOWindow: true, NIPTCapacity: 2},
		Metrics: reg,
	})
	defer c.Shutdown()
	if err := udmalib.MapSendWindow(c.NICs[0], 0, 1, []uint32{40, 41, 42}); err != nil {
		t.Fatal(err)
	}
	var procErr error
	c.Nodes[0].Kernel.Spawn("sender", func(p *kernel.Proc) {
		procErr = func() error {
			d, err := udmalib.Open(p, c.NICs[0], true)
			if err != nil {
				return err
			}
			va, err := p.Alloc(addr.PageSize)
			if err != nil {
				return err
			}
			if err := p.WriteBuf(va, workload.Payload(256, 7)); err != nil {
				return err
			}
			pio := d.Base() + addr.VAddr(c.NICs[0].NIPTSize()<<addr.PageShift)
			for round := 0; round < 3; round++ {
				for entry := uint32(0); entry < 2; entry++ {
					if err := d.Send(va, udmalib.WindowOff(entry, 0), 256); err != nil {
						return err
					}
				}
				if err := p.Store(pio+nic.PIORegDest, udmalib.WindowOff(1, 512)); err != nil {
					return err
				}
				for w := uint32(0); w < 4; w++ {
					if err := p.Store(pio+nic.PIORegData, w); err != nil {
						return err
					}
				}
				if err := p.Store(pio+nic.PIORegLaunch, 1); err != nil {
					return err
				}
			}
			auto, err := p.Alloc(addr.PageSize)
			if err == nil {
				err = p.MapAutoUpdate(c.NICs[0], auto, 1, 2)
			}
			for i := uint32(0); err == nil && i < 8; i++ {
				err = p.Store(auto+addr.VAddr(i*4), i)
			}
			c.NICs[0].FlushAutoUpdate()
			return err
		}()
	})
	if err := c.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
	st := c.NICs[0].Stats()
	if st.PIOWords == 0 || st.AutoPackets == 0 || st.NIPTMisses == 0 {
		t.Fatalf("workload missed a path: %d PIO words, %d auto-update packets, %d NIPT misses",
			st.PIOWords, st.AutoPackets, st.NIPTMisses)
	}
	snap := reg.Snapshot()
	for node := range c.Nodes {
		get := func(name string) uint64 {
			cs, ok := snap.Counter(fmt.Sprintf("%s{node=%d}", name, node))
			if !ok {
				t.Fatalf("%s{node=%d} not registered", name, node)
			}
			return cs.Value
		}
		lookups, hits, misses := get("nic_nipt_lookups"), get("nipt_hits"), get("nipt_misses")
		if lookups != hits+misses {
			t.Errorf("node %d: nic_nipt_lookups %d != nipt_hits %d + nipt_misses %d",
				node, lookups, hits, misses)
		}
	}
}
