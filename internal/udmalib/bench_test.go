package udmalib_test

import (
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/udmalib"
)

// BenchmarkSend4K drives the Fig. 8 send path on one node: a 4 KB Send
// through the library — its two-instruction initiation and its
// completion wait — per iteration, so the host cost of one message can
// be read without the bench module.
func BenchmarkSend4K(b *testing.B) {
	n := machine.New(0, machine.Config{})
	buf := device.NewBuffer("buf", 1, 4, 0)
	n.AttachDevice(buf, 0)
	defer n.Kernel.Shutdown()
	var sendErr error
	n.Kernel.Spawn("sender", func(p *kernel.Proc) {
		d, err := udmalib.Open(p, buf, true)
		if err != nil {
			sendErr = err
			return
		}
		va, err := p.Alloc(addr.PageSize)
		if err != nil {
			sendErr = err
			return
		}
		if sendErr = p.WriteBuf(va, pattern(addr.PageSize)); sendErr != nil {
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N && sendErr == nil; i++ {
			sendErr = d.Send(va, 0, addr.PageSize)
		}
		b.StopTimer()
	})
	if err := n.Kernel.Run(sim.Forever); err != nil {
		b.Fatal(err)
	}
	if sendErr != nil {
		b.Fatal(sendErr)
	}
}
