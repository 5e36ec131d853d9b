package interconnect

import (
	"testing"

	"shrimp/internal/sim"
)

type fakeEP struct {
	id    int
	clock *sim.Clock
	got   []*Packet
}

func (f *fakeEP) NodeID() int               { return f.id }
func (f *fakeEP) NodeClock() *sim.Clock     { return f.clock }
func (f *fakeEP) DeliverPacket(pkt *Packet) { f.got = append(f.got, pkt) }

func costs() *sim.CostModel {
	return &sim.CostModel{
		CPUHz: 60e6, DMABytesPerCyc: 1,
		LinkBytesPerCyc: 2, LinkLatency: 10,
	}
}

// mailPending reports whether any deferred delivery is waiting for a
// Flush.
func mailPending(b *Backplane) bool {
	for _, ob := range b.out {
		if len(ob.mail) > 0 {
			return true
		}
	}
	return false
}

func rig(n int) (*Backplane, []*fakeEP) {
	b := New(costs(), Mesh(n))
	eps := make([]*fakeEP, n)
	for i := range eps {
		eps[i] = &fakeEP{id: i, clock: sim.NewClock()}
		b.Attach(eps[i])
	}
	return b, eps
}

func TestDeliveryTiming(t *testing.T) {
	b, eps := rig(2)
	pkt := &Packet{Src: 0, Dst: 1, Payload: make([]byte, 100)}
	b.Send(pkt)
	b.Flush()
	// flight = 1 hop * 10 + 100/2 = 60.
	eps[1].clock.Advance(59)
	if len(eps[1].got) != 0 {
		t.Fatal("packet arrived early")
	}
	eps[1].clock.Advance(1)
	if len(eps[1].got) != 1 {
		t.Fatal("packet not delivered at flight time")
	}
	if pkt.ArrivedAt != 60 {
		t.Fatalf("ArrivedAt = %d, want 60", pkt.ArrivedAt)
	}
}

func TestInjectionSerializes(t *testing.T) {
	b, eps := rig(2)
	free1 := b.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 100)})
	free2 := b.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 100)})
	if free1 != 50 || free2 != 100 {
		t.Fatalf("inject-free times %d,%d, want 50,100", free1, free2)
	}
	b.Flush()
	eps[1].clock.Advance(10_000)
	if len(eps[1].got) != 2 {
		t.Fatalf("delivered %d packets", len(eps[1].got))
	}
	// In-order delivery.
	if eps[1].got[0].LaunchedAt > eps[1].got[1].LaunchedAt {
		t.Fatal("packets delivered out of order")
	}
}

func TestReceiverClockBehindSender(t *testing.T) {
	b, eps := rig(2)
	eps[0].clock.Advance(1000) // sender far ahead
	b.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 4)})
	b.Flush()
	// Receiver is at 0; arrival maps to sender-time 1000+flight.
	eps[1].clock.Advance(1000 + 10 + 2)
	if len(eps[1].got) != 1 {
		t.Fatal("packet lost across clock skew")
	}
}

func TestReceiverClockAheadOfSender(t *testing.T) {
	b, eps := rig(2)
	eps[1].clock.Advance(5000) // receiver ahead
	b.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 4)})
	b.Flush()
	// Delivery must not be scheduled in the receiver's past.
	eps[1].clock.Advance(1)
	if len(eps[1].got) != 1 {
		t.Fatal("packet not delivered promptly to ahead receiver")
	}
	if eps[1].got[0].ArrivedAt < 5000 {
		t.Fatal("packet delivered in receiver's past")
	}
}

func TestMeshHops(t *testing.T) {
	b, _ := rig(4) // 2x2 mesh
	cases := []struct {
		src, dst int
		want     sim.Cycles
	}{
		{0, 0, 1}, {0, 1, 1}, {0, 2, 1}, {0, 3, 2}, {1, 2, 2},
	}
	for _, tc := range cases {
		if got := b.Hops(tc.src, tc.dst); got != tc.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.src, tc.dst, got, tc.want)
		}
	}
}

func TestLoopback(t *testing.T) {
	b, eps := rig(2)
	b.Send(&Packet{Src: 0, Dst: 0, Payload: make([]byte, 4)})
	eps[0].clock.Advance(100)
	if len(eps[0].got) != 1 {
		t.Fatal("loopback packet not delivered")
	}
}

func TestStats(t *testing.T) {
	b, eps := rig(2)
	b.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 64)})
	b.Send(&Packet{Src: 1, Dst: 0, Payload: make([]byte, 36)})
	p, by, rp, rb := b.Stats()
	if p != 2 || by != 100 {
		t.Fatalf("stats = %d,%d", p, by)
	}
	if rp != 0 || rb != 0 {
		t.Fatalf("retrans stats = %d,%d, want 0,0", rp, rb)
	}
	if b.Nodes() != 2 {
		t.Fatalf("Nodes = %d", b.Nodes())
	}
	_ = eps
}

func TestUnattachedPanics(t *testing.T) {
	b, _ := rig(1)
	for _, pkt := range []*Packet{{Src: 9, Dst: 0}, {Src: 0, Dst: 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("send with unattached endpoint did not panic")
				}
			}()
			b.Send(pkt)
		}()
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	b, eps := rig(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	b.Attach(eps[0])
}
