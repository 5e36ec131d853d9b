package cluster_test

import (
	"bytes"
	"fmt"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/udmalib"
)

// TestRawWireBuffersUnderDupAndDelay: on the raw path each packet's
// wire buffer is recycled when its receive DMA lands. Under a fabric
// that duplicates and delays half of all packets, every node streams
// distinct pages out of a few rotating source pages into distinct
// remote frames, and every landed frame must equal its source. A
// buffer released twice — or a duplicate that inherits the original's
// buffer — ends up backing two packets at once, and one of them lands
// the other's bytes.
func TestRawWireBuffersUnderDupAndDelay(t *testing.T) {
	const (
		nodes    = 4
		msgs     = 48 // nodes*msgs distinct pattern seeds fit in a byte
		slots    = 4  // rotating source pages per sender
		recvBase = 8  // first receive frame on every node
	)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := cluster.New(cluster.Config{
				Nodes:   nodes,
				Workers: workers,
				Machine: machine.Config{RAMFrames: 128},
				NIC:     nic.Config{NIPTPages: 64},
				Fault: interconnect.FaultPlan{
					Seed: 5, DupRate: 0.5, DelayRate: 0.5, DelayMax: 20_000,
				},
			})
			defer c.Shutdown()
			errs := make([]error, nodes)
			for i := 0; i < nodes; i++ {
				pfns := make([]uint32, msgs)
				for m := range pfns {
					pfns[m] = uint32(recvBase + m)
				}
				if err := udmalib.MapSendWindow(c.NICs[i], 0, (i+1)%nodes, pfns); err != nil {
					t.Fatal(err)
				}
				i := i
				c.Nodes[i].Kernel.Spawn("sender", func(p *kernel.Proc) {
					d, err := udmalib.Open(p, c.NICs[i], true)
					if err != nil {
						errs[i] = err
						return
					}
					va, err := p.Alloc(slots * addr.PageSize)
					if err != nil {
						errs[i] = err
						return
					}
					for m := 0; m < msgs; m++ {
						src := va + addr.VAddr(m%slots*addr.PageSize)
						if err := p.WriteBuf(src, pattern(addr.PageSize, byte(i*msgs+m))); err != nil {
							errs[i] = err
							return
						}
						if err := d.Send(src, udmalib.WindowOff(uint32(m), 0), addr.PageSize); err != nil {
							errs[i] = err
							return
						}
					}
				})
			}
			if err := c.Run(1_000_000_000); err != nil {
				t.Fatal(err)
			}
			for i, err := range errs {
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
			}
			if fs := c.Backplane.FaultStats(); fs.Dups == 0 || fs.Delays == 0 {
				t.Fatalf("the fault plan perturbed nothing (%+v): the check would be vacuous", fs)
			}
			for dst := 0; dst < nodes; dst++ {
				src := (dst + nodes - 1) % nodes
				for m := 0; m < msgs; m++ {
					got, err := c.Nodes[dst].RAM.Frame(uint32(recvBase + m))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, pattern(addr.PageSize, byte(src*msgs+m))) {
						t.Fatalf("node %d frame %d does not hold node %d's message %d",
							dst, recvBase+m, src, m)
					}
				}
			}
		})
	}
}
