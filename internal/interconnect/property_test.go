package interconnect

import (
	"testing"
	"testing/quick"

	"shrimp/internal/sim"
)

// Property: per-sender delivery is in launch order regardless of packet
// sizes, and flight time is never shorter than the minimum (one hop +
// wire time).
func TestInOrderDeliveryProperty(t *testing.T) {
	prop := func(sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		b := New(costs(), Mesh(2))
		src := &fakeEP{id: 0, clock: sim.NewClock()}
		dst := &fakeEP{id: 1, clock: sim.NewClock()}
		b.Attach(src)
		b.Attach(dst)

		for i, s := range sizes {
			n := 4 * (1 + int(s)%256)
			pkt := &Packet{Src: 0, Dst: 1, Payload: make([]byte, n)}
			pkt.Payload[0] = byte(i) // sequence number
			b.Send(pkt)
			// Interleave sender activity between launches.
			src.clock.Advance(sim.Cycles(s))
		}
		b.Flush()
		dst.clock.RunUntilIdle()
		if len(dst.got) != len(sizes) {
			return false
		}
		for i, pkt := range dst.got {
			if pkt.Payload[0] != byte(i) {
				return false // reordered
			}
			minFlight := b.Hops(0, 1)*10 + sim.Cycles((len(pkt.Payload)+1)/2)
			if pkt.ArrivedAt < pkt.LaunchedAt+minFlight {
				return false // arrived faster than physics allows
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bytes accounted by the backplane equal the sum of
// payload sizes, for any mix of senders in a 4-node mesh.
func TestByteAccountingProperty(t *testing.T) {
	prop := func(routes []uint8) bool {
		if len(routes) > 64 {
			routes = routes[:64]
		}
		b := New(costs(), Mesh(4))
		eps := make([]*fakeEP, 4)
		for i := range eps {
			eps[i] = &fakeEP{id: i, clock: sim.NewClock()}
			b.Attach(eps[i])
		}
		var want uint64
		for _, r := range routes {
			src := int(r) % 4
			dst := int(r/4) % 4
			n := 4 + int(r)%128
			b.Send(&Packet{Src: src, Dst: dst, Payload: make([]byte, n)})
			want += uint64(n)
		}
		_, bytes, _, _ := b.Stats()
		if bytes != want {
			return false
		}
		// Everything eventually delivers.
		b.Flush()
		var delivered int
		for _, ep := range eps {
			ep.clock.RunUntilIdle()
			delivered += len(ep.got)
		}
		return delivered == len(routes)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
