package interconnect

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"shrimp/internal/raceflag"
	"shrimp/internal/sim"
)

// TestMergeMatchesReferenceSort pins the k-way merge to the contract the
// old implementation enforced with a full sort.Slice: deliveries visit
// in global (arrival time, sender, per-sender sequence) order. The
// traffic is shaped to force plenty of same-cycle ties across senders —
// the tie-break is what keeps the schedule identical at every worker
// count.
func TestMergeMatchesReferenceSort(t *testing.T) {
	const nodes = 9
	b, eps := rig(nodes)
	rng := rand.New(rand.NewSource(42))

	sizes := []int{0, 16, 16, 64} // few distinct sizes => frequent arrival ties
	for i := 0; i < 500; i++ {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		if dst == src {
			dst = (dst + 1) % nodes
		}
		if rng.Intn(3) == 0 {
			eps[src].clock.Advance(sim.Cycles(rng.Intn(4) * 25))
		}
		b.Send(&Packet{Src: src, Dst: dst, Seq: uint64(i), Payload: make([]byte, sizes[rng.Intn(len(sizes))])})
	}

	// Snapshot every parked entry and compute the reference order with
	// an explicit (at, src, seq) sort, exactly as the old Flush did.
	type ref struct {
		pkt *Packet
		at  sim.Cycles
		src int
		seq uint64
	}
	var want []ref
	for _, id := range b.ids {
		for _, e := range b.out[id].mail {
			want = append(want, ref{pkt: e.pkt, at: e.at, src: id, seq: e.seq})
		}
	}
	if len(want) == 0 {
		t.Fatal("no mail parked")
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		if want[i].src != want[j].src {
			return want[i].src < want[j].src
		}
		return want[i].seq < want[j].seq
	})

	var got []*Packet
	b.mergeMail(func(e *mailEntry) { got = append(got, e.pkt) })

	if len(got) != len(want) {
		t.Fatalf("merge visited %d entries, want %d", len(got), len(want))
	}
	ties := 0
	for i := range want {
		if got[i] != want[i].pkt {
			t.Fatalf("merge order diverges from reference sort at entry %d", i)
		}
		if i > 0 && want[i].at == want[i-1].at {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("workload produced no same-cycle ties; tie-break untested")
	}
	if b.MailPending() {
		t.Fatal("mail still parked after merge")
	}
}

// TestMergeSteadyStateAllocs guards the pooled Flush path: once the
// mailbox slabs and the merge scratch have warmed up, a park+merge
// window must not allocate. (Clock scheduling still allocates one event
// per delivery — inherent to the event queue — so the guard drives
// mergeMail with a counting callback rather than a full Flush.)
func TestMergeSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("exact alloc counts are meaningless under -race")
	}
	const nodes = 4
	b, _ := rig(nodes)

	payload := make([]byte, 32)
	pkts := make([]*Packet, 64)
	for i := range pkts {
		src := i % nodes
		pkts[i] = &Packet{Src: src, Dst: (src + 1) % nodes, Payload: payload}
	}
	window := func() {
		for _, p := range pkts {
			b.Send(p)
		}
		b.mergeMail(func(*mailEntry) {})
	}
	window() // warm the slabs and scratch

	if n := testing.AllocsPerRun(100, window); n != 0 {
		t.Fatalf("pooled flush window allocates %.1f times, want 0", n)
	}
}

// TestDupSnapshotsPayloadBeforeCorrupt pins the fix for the fabric-dup
// ordering bug: with a plan that both duplicates and corrupts every
// packet, the duplicate must carry the original bytes (its copy is
// taken before the corruption draw is applied), while the primary is
// corrupted. Before the fix one corrupt draw tainted both wire copies,
// and the DupDataBytes ledger disagreed with what receivers CRC-checked.
func TestDupSnapshotsPayloadBeforeCorrupt(t *testing.T) {
	b, eps := rig(2)
	b.SetFaultPlan(FaultPlan{Seed: 7, DupRate: 1, CorruptRate: 1, DelayMax: 100})

	orig := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04}
	pkt := &Packet{Src: 0, Dst: 1, Kind: PktData, Seq: 1, Payload: append([]byte(nil), orig...)}
	b.Send(pkt)
	b.Flush()
	eps[1].clock.Advance(1 << 20)

	if len(eps[1].got) != 2 {
		t.Fatalf("got %d deliveries, want 2 (primary + dup)", len(eps[1].got))
	}
	var primary, dup *Packet
	for _, g := range eps[1].got {
		if g.Dup {
			dup = g
		} else {
			primary = g
		}
	}
	if primary == nil || dup == nil {
		t.Fatalf("want one primary and one dup, got primary=%v dup=%v", primary != nil, dup != nil)
	}
	if !bytes.Equal(dup.Payload, orig) {
		t.Errorf("dup payload tainted by the primary's corruption: % x", dup.Payload)
	}
	if bytes.Equal(primary.Payload, orig) {
		t.Errorf("primary escaped corruption at CorruptRate=1")
	}

	fs := b.FaultStats()
	if fs.Dups != 1 || fs.Corrupts != 1 {
		t.Errorf("FaultStats dups=%d corrupts=%d, want 1/1", fs.Dups, fs.Corrupts)
	}
	if fs.DupDataBytes != uint64(len(orig)) {
		t.Errorf("DupDataBytes=%d, want %d (the dup's clean copy)", fs.DupDataBytes, len(orig))
	}
}

// TestLinkLookaheadBounds checks the per-link conservative bound the
// cluster relies on: no packet from src can ever be timestamped for dst
// earlier than the sender's launch clock plus LinkLookahead(src, dst).
func TestLinkLookaheadBounds(t *testing.T) {
	const nodes = 16
	b, eps := rig(nodes)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		if dst == src {
			continue
		}
		eps[src].clock.Advance(sim.Cycles(rng.Intn(40)))
		b.Send(&Packet{Src: src, Dst: dst, Payload: make([]byte, rng.Intn(256))})
		for _, m := range b.out[src].mail {
			if bound := m.pkt.LaunchedAt + b.LinkLookahead(src, m.pkt.Dst); m.at < bound {
				t.Fatalf("arrival %d beats lookahead bound %d for link %d->%d", m.at, bound, src, m.pkt.Dst)
			}
		}
	}
}
