package interconnect

import (
	"fmt"
	"testing"

	"shrimp/internal/sim"
)

// linkIndex is the reference for hop's link slot: it maps a (router,
// adjacent router) pair to its slot in the Backplane's link array from
// their coordinates alone. Torus wrap crossings count as motion in the
// direction of travel.
func (t Topology) linkIndex(cur, next int) int {
	cx, cy := t.Coord(cur)
	nx, ny := t.Coord(next)
	var dir int
	switch {
	case ny == cy && (nx-cx == 1 || (cx == t.Width-1 && nx == 0)):
		dir = dirPosX
	case ny == cy && (cx-nx == 1 || (nx == t.Width-1 && cx == 0)):
		dir = dirNegX
	case nx == cx && (ny-cy == 1 || (cy == t.Height()-1 && ny == 0)):
		dir = dirPosY
	case nx == cx && (cy-ny == 1 || (ny == t.Height()-1 && cy == 0)):
		dir = dirNegY
	default:
		panic(fmt.Sprintf("interconnect: routers %d and %d are not adjacent", cur, next))
	}
	return cur*4 + dir
}

// walkPath follows hop from src to dst and returns the router sequence
// (excluding src), bounded so a routing loop fails the test instead of
// hanging it. Every step's slot must be the reference linkIndex of the
// step and lead, through linkPeer, to the next router.
func walkPath(t *testing.T, topo Topology, src, dst int) []int {
	t.Helper()
	var path []int
	cur := src
	for cur != dst {
		if len(path) > topo.Routers() {
			t.Fatalf("route %d->%d does not converge: %v", src, dst, path)
		}
		next, slot := topo.hop(cur, dst)
		if want := topo.linkIndex(cur, next); slot != want {
			t.Fatalf("%s width %d: hop(%d, %d) slot %d, linkIndex %d", topo.Kind, topo.Width, cur, dst, slot, want)
		}
		if got := topo.linkPeer(slot); got != next {
			t.Fatalf("%s width %d: hop(%d, %d) = %d, linkPeer(%d) = %d", topo.Kind, topo.Width, cur, dst, next, slot, got)
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// TestHopTableMatchesPathLen: the path lengths New tabulates once are
// PathLen for every node pair (1 for loopback), on meshes and tori of
// several sizes, including non-square widths and ragged last rows, and
// LinkLookahead reads them.
func TestHopTableMatchesPathLen(t *testing.T) {
	for _, kind := range []Kind{KindMesh, KindTorus} {
		for _, shape := range []struct{ nodes, width int }{
			{1, 0}, {2, 0}, {5, 1}, {6, 3}, {7, 0}, {12, 5}, {16, 0}, {61, 8}, {64, 0},
		} {
			b := New(costs(), Topology{Kind: kind, Nodes: shape.nodes, Width: shape.width})
			for src := 0; src < shape.nodes; src++ {
				for dst := 0; dst < shape.nodes; dst++ {
					want := sim.Cycles(b.topo.PathLen(src, dst))
					if src == dst {
						want = 1
					}
					if got := b.Hops(src, dst); got != want {
						t.Fatalf("%s %d nodes width %d: Hops(%d, %d) = %d, want %d",
							kind, shape.nodes, b.topo.Width, src, dst, got, want)
					}
					if got := b.LinkLookahead(src, dst); got != want*costs().LinkLatency {
						t.Fatalf("%s %d nodes width %d: LinkLookahead(%d, %d) = %d, want %d hops",
							kind, shape.nodes, b.topo.Width, src, dst, got, want)
					}
				}
			}
		}
	}
}

// TestRoutingWalkMatchesPathLen: for every router pair in meshes and
// tori of widths 1, 2, 3, 4 and 8 and heights 2 to 8, most with a
// ragged last row, the hop walk terminates in exactly PathLen links,
// and the X dimension is fully corrected before Y moves (dimension
// order).
func TestRoutingWalkMatchesPathLen(t *testing.T) {
	var topos []Topology
	for _, kind := range []Kind{KindMesh, KindTorus} {
		for _, shape := range []struct{ nodes, width int }{
			{5, 1},  // a 1x5 column
			{3, 0},  // 2x2, ragged last row
			{5, 2},  // 2x3, ragged last row
			{7, 0},  // 3x3, ragged last row
			{8, 0},  // 3x3, ragged last row
			{16, 0}, // full 4x4
			{61, 8}, // 8x8, ragged last row
		} {
			topos = append(topos, Topology{Kind: kind, Nodes: shape.nodes, Width: shape.width}.normalized())
		}
	}
	for _, topo := range topos {
		for src := 0; src < topo.Routers(); src++ {
			for dst := 0; dst < topo.Routers(); dst++ {
				if src == dst {
					continue
				}
				path := walkPath(t, topo, src, dst)
				if len(path) != topo.PathLen(src, dst) {
					t.Fatalf("%s %d->%d: walk %d links, PathLen %d",
						topo.Kind, src, dst, len(path), topo.PathLen(src, dst))
				}
				// Dimension order: once a hop moves in Y, no later hop
				// may move in X.
				sawY := false
				prev := src
				for _, r := range path {
					_, py := topo.Coord(prev)
					_, ry := topo.Coord(r)
					if ry != py {
						sawY = true
					} else if sawY {
						t.Fatalf("%s %d->%d: X move after Y move in %v", topo.Kind, src, dst, path)
					}
					prev = r
				}
			}
		}
	}
}

// TestTorusTakesShortRing: the torus route wraps when the ring distance
// is shorter the other way, and breaks exact ties in the positive
// direction, deterministically.
func TestTorusTakesShortRing(t *testing.T) {
	topo := Torus(16).normalized() // 4x4
	// 0 -> 3 on a 4-ring: forward 3, backward 1 => wrap backward.
	if got := topo.PathLen(0, 3); got != 1 {
		t.Fatalf("torus PathLen(0,3) = %d, want 1 (wrap)", got)
	}
	if next, _ := topo.hop(0, 3); next != 3 {
		t.Fatalf("torus hop(0,3) = %d, want 3 (backward wrap)", next)
	}
	// 0 -> 2 on a 4-ring: distance 2 both ways; tie goes forward.
	if next, _ := topo.hop(0, 2); next != 1 {
		t.Fatalf("torus hop(0,2) = %d, want 1 (tie forward)", next)
	}
	// Mesh never wraps: 0 -> 3 is 3 links.
	mesh := Mesh(16).normalized()
	if got := mesh.PathLen(0, 3); got != 3 {
		t.Fatalf("mesh PathLen(0,3) = %d, want 3", got)
	}
}

// TestHopsIndependentOfAttachOrder pins the satellite fix: the router
// grid is fixed by the Topology at New, so hop distances no longer
// shift with the order (or count) of Attach calls. Before the fix,
// width was recomputed as ceil(sqrt(attached)) on every Attach.
func TestHopsIndependentOfAttachOrder(t *testing.T) {
	const n = 5 // width 3: the old code's width changed at n=2,3,5
	build := func(order []int) *Backplane {
		b := New(costs(), Mesh(n))
		for _, id := range order {
			b.Attach(&fakeEP{id: id, clock: sim.NewClock()})
		}
		return b
	}
	a := build([]int{0, 1, 2, 3, 4})
	z := build([]int{4, 2, 0, 3, 1})
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if a.Hops(src, dst) != z.Hops(src, dst) {
				t.Fatalf("Hops(%d,%d) depends on attach order: %d vs %d",
					src, dst, a.Hops(src, dst), z.Hops(src, dst))
			}
		}
	}
}

// TestAttachOutsideTopologyPanics: the declared node count is a hard
// wall, not a hint.
func TestAttachOutsideTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("attaching node 2 to a declared 2-node mesh did not panic")
		}
	}()
	b := New(costs(), Mesh(2))
	b.Attach(&fakeEP{id: 2, clock: sim.NewClock()})
}

// TestSendBeforeFullyWiredPanics: sending while declared endpoints are
// still missing is a wiring bug — the old backplane would silently
// route over a half-built (and differently-shaped) mesh.
func TestSendBeforeFullyWiredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("send with 2 of 3 declared nodes attached did not panic")
		}
	}()
	b := New(costs(), Mesh(3))
	b.Attach(&fakeEP{id: 0, clock: sim.NewClock()})
	b.Attach(&fakeEP{id: 1, clock: sim.NewClock()})
	b.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 8)})
}

// TestLinkContentionSerializes: two senders whose XY routes share the
// final link into the destination are serialized at link bandwidth,
// and the shared link's ledger records the busy/wait cycles. Node
// coordinates in the 2x2 mesh: 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1); routes
// 2->0 and 3->0 (X first: 3->2) both cross the column link 2->0.
func TestLinkContentionSerializes(t *testing.T) {
	b, eps := rig(4)
	b.Send(&Packet{Src: 2, Dst: 0, Payload: make([]byte, 100)})
	b.Send(&Packet{Src: 3, Dst: 0, Payload: make([]byte, 100)})
	if !mailPending(b) {
		t.Fatal("cross-node sends did not park mail")
	}
	b.Flush()
	if mailPending(b) {
		t.Fatal("Flush left mail parked")
	}
	eps[0].clock.RunUntilIdle()
	if len(eps[0].got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(eps[0].got))
	}
	// Zero-load: 2->0 arrives at 10+50=60; 3->0 at 20+50=70. The
	// shared link 2->0 is busy until 100 serving the first packet
	// (wire=50), so the second starts there: 50+10+50 = 110.
	if at := eps[0].got[0].ArrivedAt; at != 60 {
		t.Fatalf("first arrival %d, want 60", at)
	}
	if at := eps[0].got[1].ArrivedAt; at != 110 {
		t.Fatalf("contended arrival %d, want 110 (zero-load 70 + 40 queued)", at)
	}
	var shared *LinkStat
	for _, ls := range b.LinkStats() {
		ls := ls
		if ls.From == 2 && ls.To == 0 {
			shared = &ls
		}
	}
	if shared == nil {
		t.Fatal("shared link 2->0 has no stats")
	}
	if shared.Packets != 2 || shared.BusyCycles != 100 || shared.WaitCycles != 40 || shared.PeakQueue != 1 {
		t.Fatalf("shared link ledger %+v, want pkts=2 busy=100 wait=40 peak=1", *shared)
	}
}

// TestThrottledFabricSlowsWire: a topology link capacity below the
// host-interface rate stretches the zero-load wire time (the inject
// FIFO still drains at the host rate).
func TestThrottledFabricSlowsWire(t *testing.T) {
	topo := Mesh(2)
	topo.LinkBytesPerCyc = 1 // half the cost model's 2 B/cyc
	b := New(costs(), topo)
	eps := []*fakeEP{{id: 0, clock: sim.NewClock()}, {id: 1, clock: sim.NewClock()}}
	b.Attach(eps[0])
	b.Attach(eps[1])
	free := b.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 100)})
	if free != 50 {
		t.Fatalf("inject FIFO free at %d, want 50 (host-interface rate)", free)
	}
	b.Flush()
	eps[1].clock.RunUntilIdle()
	// Flight = 1 link * 10 latency + 100/1 fabric wire = 110.
	if at := eps[1].got[0].ArrivedAt; at != 110 {
		t.Fatalf("throttled arrival %d, want 110", at)
	}
}

// TestMergeTieBreakAcrossShards pins the satellite case directly: three
// senders park mail with the *same* arrival cycle, and the merge must
// visit them in ascending sender order, sequences in order within each
// sender — the tie-break that keeps receiver event queues identical at
// every worker count.
func TestMergeTieBreakAcrossShards(t *testing.T) {
	b, _ := rig(4)
	// Equal arrivals at cycle 60: senders 1 and 2 are one link from 0
	// (flight 10+wire), sender 3 is two links (flight 20+wire), so give
	// 3 a payload whose wire time is 10 cycles shorter.
	for pass := 0; pass < 2; pass++ { // two packets per sender: seq order within shard
		b.Send(&Packet{Src: 1, Dst: 0, Seq: uint64(pass), Payload: make([]byte, 100)})
		b.Send(&Packet{Src: 2, Dst: 0, Seq: uint64(pass), Payload: make([]byte, 100)})
		b.Send(&Packet{Src: 3, Dst: 0, Seq: uint64(pass), Payload: make([]byte, 80)})
	}
	type visit struct {
		src int
		at  sim.Cycles
		seq uint64
	}
	var got []visit
	b.mergeMail(func(e *mailEntry) {
		got = append(got, visit{src: e.pkt.Src, at: e.at, seq: e.pkt.Seq})
	})
	if len(got) != 6 {
		t.Fatalf("merged %d entries, want 6", len(got))
	}
	if got[0].at != 60 || got[1].at != 60 || got[2].at != 60 {
		t.Fatalf("first wave arrivals %v, want all at 60", got[:3])
	}
	want := []visit{{1, 60, 0}, {2, 60, 0}, {3, 60, 0}, {1, 110, 1}, {2, 110, 1}, {3, 100, 1}}
	// Second-wave arrivals differ (inject FIFO serializes), so sort of
	// the tail is by time: 3's second packet (at 100) precedes 1 and 2's
	// (at 110).
	wantOrder := []visit{want[0], want[1], want[2], want[5], want[3], want[4]}
	for i, w := range wantOrder {
		if got[i] != w {
			t.Fatalf("merge order[%d] = %+v, want %+v (full: %+v)", i, got[i], w, got)
		}
	}
}

// TestMailPendingAcrossFlush covers the parked-mail lifecycle the
// cluster's limit-bounded Run return depends on: mail parks on Send,
// nothing reaches the receiver clock until Flush, and Flush schedules
// it with the contention-adjusted arrival.
func TestMailPendingAcrossFlush(t *testing.T) {
	b, eps := rig(2)
	if mailPending(b) {
		t.Fatal("mail parked on an idle backplane")
	}
	b.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 100)})
	if !mailPending(b) {
		t.Fatal("Send parked no delivery")
	}
	eps[1].clock.RunUntilIdle()
	if len(eps[1].got) != 0 {
		t.Fatal("parked delivery reached the receiver before Flush")
	}
	b.Flush()
	if mailPending(b) {
		t.Fatal("mail still parked after Flush")
	}
	eps[1].clock.RunUntilIdle()
	if len(eps[1].got) != 1 || eps[1].got[0].ArrivedAt != 60 {
		t.Fatalf("post-Flush delivery %+v, want one arrival at 60", eps[1].got)
	}
	// Loopback never parks: it stays on the sender's own clock.
	b.Send(&Packet{Src: 0, Dst: 0, Payload: make([]byte, 4)})
	if mailPending(b) {
		t.Fatal("loopback send parked mail")
	}
}
