package cluster_test

import (
	"errors"
	"fmt"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// runFaultedScenario drives a 3-node ring whose NICs sit behind
// per-node fault injectors, recovering with SendRetry, and returns a
// fingerprint of everything observable.
func runFaultedScenario(t *testing.T) (fp string, injected uint64) {
	t.Helper()
	const nodes = 3
	c := cluster.New(cluster.Config{
		Nodes:   nodes,
		Machine: machine.Config{RAMFrames: 64},
		NIC:     nic.Config{NIPTPages: 8},
		Inject:  cluster.InjectPlan{Seed: 0xC10C_FA17, RejectRate: 0.08, FailRate: 0.08},
	})
	defer c.Shutdown()

	delivered := make([]int, nodes)
	exhausted := make([]int, nodes)
	errs := make([]error, nodes)
	for i := 0; i < nodes; i++ {
		dst := (i + 1) % nodes
		if err := udmalib.MapSendWindow(c.NICs[i], 0, dst, []uint32{40}); err != nil {
			t.Fatal(err)
		}
		i := i
		c.Nodes[i].Kernel.Spawn("sender", func(p *kernel.Proc) {
			// Open the fault wrapper, not the bare NIC: the wrapper is
			// what the node decodes.
			d, err := udmalib.Open(p, c.Dev(i), true)
			if err != nil {
				errs[i] = err
				return
			}
			va, _ := p.Alloc(addr.PageSize)
			p.WriteBuf(va, workload.Payload(1024, byte(i+1)))
			for m := 0; m < 12; m++ {
				switch err := d.SendRetry(va, 0, 1024, udmalib.DefaultRetryPolicy()); {
				case err == nil:
					delivered[i]++
				case errors.As(err, new(*udmalib.RetryExhaustedError)):
					exhausted[i]++
				default:
					errs[i] = err
					return
				}
			}
		})
	}
	if err := c.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	for i := 0; i < nodes; i++ {
		if delivered[i]+exhausted[i] != 12 {
			t.Fatalf("node %d: %d delivered + %d exhausted of 12 (a send hung or escaped)",
				i, delivered[i], exhausted[i])
		}
		rej, fail := c.Faulty[i].Injected()
		injected += rej + fail
		ks := c.Nodes[i].Kernel.Stats()
		fp += fmt.Sprintf("n%d clock=%d ok=%d x=%d rej=%d fail=%d dmafail=%d sent=%d|",
			i, c.Nodes[i].Clock.Now(), delivered[i], exhausted[i],
			rej, fail, ks.DMAFailures, c.NICs[i].Stats().BytesSent)
	}
	return fp, injected
}

// TestFaultInjectedClusterIsDeterministic extends the determinism
// guarantee to the fault path: with fault injection on, the injected
// fault pattern and every recovery it provokes are a pure function of
// the cluster seed — two identical runs are cycle-identical.
func TestFaultInjectedClusterIsDeterministic(t *testing.T) {
	a, injectedA := runFaultedScenario(t)
	b, injectedB := runFaultedScenario(t)
	if injectedA == 0 {
		t.Fatal("no faults fired; the scenario exercises nothing")
	}
	if a != b || injectedA != injectedB {
		t.Fatalf("two identical fault-injected runs diverged:\n  %s\n  %s", a, b)
	}
}
