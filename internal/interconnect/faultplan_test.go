package interconnect

import (
	"bytes"
	"testing"

	"shrimp/internal/sim"
)

func lossyRig(n int, plan FaultPlan) (*Backplane, []*fakeEP) {
	b, eps := rig(n)
	b.SetFaultPlan(plan)
	return b, eps
}

func sendBurst(b *Backplane, eps []*fakeEP, count, size int) {
	for i := 0; i < count; i++ {
		pay := make([]byte, size)
		for j := range pay {
			pay[j] = byte(i + j)
		}
		b.Send(&Packet{Src: 0, Dst: 1, Kind: PktData, Seq: uint64(i + 1), Payload: pay})
		b.Flush()
		eps[1].clock.Advance(10_000)
	}
}

// TestFaultPlanDeterminism: two backplanes with the same plan see the
// same traffic and must perturb it identically — same drops, same
// duplicated copies, same corrupted bytes, same delays.
func TestFaultPlanDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 42, DropRate: 0.2, DupRate: 0.1, CorruptRate: 0.1, DelayRate: 0.2}
	runs := make([][]*Packet, 2)
	stats := make([]FaultStats, 2)
	for r := 0; r < 2; r++ {
		b, eps := lossyRig(2, plan)
		sendBurst(b, eps, 200, 64)
		runs[r] = eps[1].got
		stats[r] = b.FaultStats()
	}
	if stats[0] != stats[1] {
		t.Fatalf("fault stats diverged:\n%+v\n%+v", stats[0], stats[1])
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(runs[0]), len(runs[1]))
	}
	for i := range runs[0] {
		a, b := runs[0][i], runs[1][i]
		if a.Seq != b.Seq || a.Dup != b.Dup || a.ArrivedAt != b.ArrivedAt || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("delivery %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

// TestFaultPlanSeedsDiffer: different seeds must give different
// perturbations (or the "determinism" above is vacuous).
func TestFaultPlanSeedsDiffer(t *testing.T) {
	outcomes := make([]int, 2)
	for r, seed := range []uint64{1, 2} {
		b, eps := lossyRig(2, FaultPlan{Seed: seed, DropRate: 0.3})
		sendBurst(b, eps, 200, 16)
		outcomes[r] = len(eps[1].got)
	}
	if outcomes[0] == outcomes[1] {
		t.Fatalf("seeds 1 and 2 dropped identically (%d delivered) — suspicious", outcomes[0])
	}
}

// TestFaultPlanDropAccounting: drops land in FaultStats with data-byte
// accounting, and delivered + dropped + duplicated adds up.
func TestFaultPlanDropAccounting(t *testing.T) {
	b, eps := lossyRig(2, FaultPlan{Seed: 7, DropRate: 0.25, DupRate: 0.1})
	const count, size = 400, 32
	sendBurst(b, eps, count, size)
	fs := b.FaultStats()
	if fs.Drops == 0 || fs.Dups == 0 {
		t.Fatalf("25%% drop / 10%% dup produced none over %d packets: %+v", count, fs)
	}
	// Rough-bounds sanity: a wildly skewed RNG is a bug.
	if fs.Drops < 50 || fs.Drops > 180 {
		t.Fatalf("drops = %d over %d at 25%%: RNG stream broken", fs.Drops, count)
	}
	if got := uint64(len(eps[1].got)); got != count-fs.Drops+fs.Dups {
		t.Fatalf("delivered %d, want %d - %d drops + %d dups", got, count, fs.Drops, fs.Dups)
	}
	if fs.DroppedDataBytes != fs.Drops*size || fs.DupDataBytes != fs.Dups*size {
		t.Fatalf("byte accounting off: %+v", fs)
	}
	dups := 0
	for _, p := range eps[1].got {
		if p.Dup {
			dups++
		}
	}
	if uint64(dups) != fs.Dups {
		t.Fatalf("delivered dup copies %d != counted %d", dups, fs.Dups)
	}
}

// TestFaultPlanCorruption flips exactly one bit of a data payload and
// leaves the CRC stale so the receiver can detect it.
func TestFaultPlanCorruption(t *testing.T) {
	b, eps := lossyRig(2, FaultPlan{Seed: 3, CorruptRate: 1.0})
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.Send(&Packet{Src: 0, Dst: 1, Kind: PktData, CRC: 0xDEAD, Payload: append([]byte(nil), want...)})
	b.Flush()
	eps[1].clock.Advance(10_000)
	if len(eps[1].got) != 1 {
		t.Fatalf("delivered %d", len(eps[1].got))
	}
	got := eps[1].got[0]
	if got.CRC != 0xDEAD {
		t.Fatal("corruption must not fix up the CRC")
	}
	diff := 0
	for i := range want {
		if x := want[i] ^ got.Payload[i]; x != 0 {
			diff++
			if x&(x-1) != 0 {
				t.Fatalf("byte %d flipped more than one bit: %02x", i, x)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("corruption touched %d bytes, want exactly 1", diff)
	}
	if b.FaultStats().Corrupts != 1 {
		t.Fatalf("stats %+v", b.FaultStats())
	}
}

// TestFaultPlanDelayReorders: late delivery must be able to invert
// arrival order of back-to-back packets.
func TestFaultPlanDelayReorders(t *testing.T) {
	b, eps := lossyRig(2, FaultPlan{Seed: 11, DelayRate: 0.5, DelayMax: 5000})
	for i := 0; i < 50; i++ {
		b.Send(&Packet{Src: 0, Dst: 1, Kind: PktData, Seq: uint64(i + 1), Payload: make([]byte, 8)})
	}
	b.Flush()
	eps[1].clock.Advance(1_000_000)
	if b.FaultStats().Delays == 0 {
		t.Fatal("50% delay rate produced no delays over 50 packets")
	}
	inverted := false
	for i := 1; i < len(eps[1].got); i++ {
		if eps[1].got[i].Seq < eps[1].got[i-1].Seq {
			inverted = true
			break
		}
	}
	if !inverted {
		t.Fatal("delays never reordered a delivery")
	}
}

// TestFaultPlanFlapWindows: LinkDown is periodic with the configured
// duty cycle, differs per directed link, and sends during a down window
// are dropped and counted as flap drops.
func TestFaultPlanFlapWindows(t *testing.T) {
	plan := FaultPlan{Seed: 9, FlapPeriod: 1000, FlapDown: 300}
	b, eps := lossyRig(2, plan)
	var down sim.Cycles
	for at := sim.Cycles(0); at < 10_000; at++ {
		if b.LinkDown(0, 1, at) {
			down++
		}
	}
	if down != 3000 {
		t.Fatalf("down %d of 10000 cycles, want 3000 (30%% duty)", down)
	}
	// Periodicity: the window repeats exactly.
	for at := sim.Cycles(0); at < 1000; at++ {
		if b.LinkDown(0, 1, at) != b.LinkDown(0, 1, at+5*1000) {
			t.Fatalf("flap window not periodic at %d", at)
		}
	}
	// Find a down cycle and send through it.
	var when sim.Cycles
	for b.LinkDown(0, 1, when) == false {
		when++
	}
	eps[0].clock.AdvanceTo(when)
	b.Send(&Packet{Src: 0, Dst: 1, Kind: PktData, Payload: make([]byte, 16)})
	b.Flush()
	eps[1].clock.Advance(100_000)
	if len(eps[1].got) != 0 {
		t.Fatal("packet crossed a down link")
	}
	fs := b.FaultStats()
	if fs.FlapDrops != 1 || fs.DroppedDataBytes != 16 {
		t.Fatalf("flap drop not counted: %+v", fs)
	}
}

// TestZeroPlanIsTransparent: an empty plan perturbs nothing — same
// deliveries, no fault stats, no RNG state.
func TestZeroPlanIsTransparent(t *testing.T) {
	b, eps := rig(2)
	if b.Plan().Enabled() {
		t.Fatal("fresh backplane has a fault plan")
	}
	sendBurst(b, eps, 50, 64)
	if got := len(eps[1].got); got != 50 {
		t.Fatalf("delivered %d of 50 on a clean wire", got)
	}
	if fs := b.FaultStats(); fs != (FaultStats{}) {
		t.Fatalf("clean wire accumulated fault stats: %+v", fs)
	}
}

// TestStatsCountRetransmissions: the retransmission breakout in
// Backplane.Stats counts packets flagged Retrans.
func TestStatsCountRetransmissions(t *testing.T) {
	b, eps := rig(2)
	b.Send(&Packet{Src: 0, Dst: 1, Payload: make([]byte, 100)})
	b.Send(&Packet{Src: 0, Dst: 1, Retrans: true, Payload: make([]byte, 40)})
	b.Flush()
	eps[1].clock.Advance(10_000)
	p, by, rp, rb := b.Stats()
	if p != 2 || by != 140 || rp != 1 || rb != 40 {
		t.Fatalf("Stats() = %d/%d/%d/%d, want 2/140/1/40", p, by, rp, rb)
	}
}
