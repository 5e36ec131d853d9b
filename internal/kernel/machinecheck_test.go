package kernel_test

import (
	"bytes"
	"errors"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/core"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/workload"
)

// TestMachineCheckAbortsBlockedDMA: a machine check raised while a
// traditional-DMA syscall is blocked on the engine must fail that
// syscall with core.ErrTerminated — not leave the process asleep
// forever — and the machine must stay usable. Both kernel paths are
// covered: the reserved system queue (ticket) and the basic shared
// engine (epoch).
func TestMachineCheckAbortsBlockedDMA(t *testing.T) {
	cases := []struct {
		name string
		cfg  machine.Config
	}{
		{"system queue ticket path", machine.Config{
			UDMA: core.Config{SystemQueueDepth: 2},
		}},
		{"basic engine path", machine.Config{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, buf := newNode(t, tc.cfg)

			// Interrupt watcher: the moment the engine goes busy with the
			// process's transfer, raise a machine check. Re-arms until it
			// fires once, then never again.
			fired := false
			discarded := -1
			var watch func()
			watch = func() {
				if fired {
					return
				}
				if n.Engine.Busy() {
					fired = true
					discarded = n.Kernel.MachineCheck(errors.New("injected parity error"))
					return
				}
				n.Clock.ScheduleAfter(100, watch)
			}
			n.Clock.ScheduleAfter(100, watch)

			payload := workload.Payload(2*addr.PageSize, 9)
			var first, second error
			n.Kernel.Spawn("victim", func(p *kernel.Proc) {
				va, _ := p.Alloc(len(payload))
				p.WriteBuf(va, payload)
				first = p.DMAWrite(va, addr.DevProxy(0, 0), len(payload), kernel.DMAOptions{})
				// The machine must be immediately reusable after the check.
				second = p.DMAWrite(va, addr.DevProxy(4, 0), len(payload), kernel.DMAOptions{})
			})
			run(t, n)

			if !fired {
				t.Fatal("machine check never fired (engine never seen busy)")
			}
			if discarded < 1 {
				t.Fatalf("MachineCheck discarded %d transfers, want >= 1", discarded)
			}
			if !errors.Is(first, core.ErrTerminated) {
				t.Fatalf("interrupted DMAWrite returned %v, want core.ErrTerminated", first)
			}
			if second != nil {
				t.Fatalf("post-check DMAWrite: %v", second)
			}
			if got := buf.Bytes(4*addr.PageSize, len(payload)); !bytes.Equal(got, payload) {
				t.Fatal("post-check transfer did not deliver")
			}
			ks := n.Kernel.Stats()
			if ks.MachineChecks != 1 {
				t.Fatalf("MachineChecks = %d, want 1", ks.MachineChecks)
			}
		})
	}
}
