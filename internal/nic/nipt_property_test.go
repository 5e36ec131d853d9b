package nic

import (
	"fmt"
	"hash/fnv"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/sim"
)

// The cache-vs-unbounded equivalence property: the NIPT cache is a pure
// performance model, never a correctness change. For any seeded op
// sequence over K entries,
//
//   - a board with NIPTCapacity >= K is *bit-identical* to the
//     unbounded board — same stats (hits, misses, evictions, refill),
//     same clocks, same delivered bytes — because SetNIPT
//     write-allocates and nothing is ever evicted, so no miss ever
//     draws the refill RNG;
//   - a board with any smaller capacity still delivers byte-identical
//     transfers (timing and hit rates differ, payloads never do).
//
// The op mix deliberately interleaves every lookup path: kernel-style
// SetNIPT installs and teardowns, DMA-engine sends (CheckTransfer →
// TransferLatency → completion Write, with the pin held in between),
// PIO FIFO launches (including the delayed launch a miss schedules),
// and idle time.

const propEntries = 12 // distinct NIPT indices the op sequence uses

func TestNIPTCapacityEquivalence(t *testing.T) {
	var tinyMisses, tinyEvictions uint64
	for seed := uint64(1); seed <= 64; seed++ {
		baseStats, baseRAM, _ := runNIPTOps(t, seed, 0)
		eqStats, eqRAM, _ := runNIPTOps(t, seed, propEntries)
		if baseStats != eqStats {
			t.Fatalf("seed %d: capacity %d diverged from unbounded:\n %s\nvs %s",
				seed, propEntries, eqStats, baseStats)
		}
		if baseRAM != eqRAM {
			t.Fatalf("seed %d: capacity %d delivered different bytes", seed, propEntries)
		}
		// Under real eviction pressure only timing may change: the
		// delivered bytes must still match the unbounded run.
		_, tinyRAM, tiny := runNIPTOps(t, seed, 3)
		if tinyRAM != baseRAM {
			t.Fatalf("seed %d: capacity 3 delivered different bytes", seed)
		}
		tinyMisses += tiny.NIPTMisses
		tinyEvictions += tiny.NIPTEvictions
	}
	// Guard against vacuity: the tiny-capacity runs must actually have
	// churned the cache, or the byte-equality above proved nothing.
	if tinyMisses == 0 || tinyEvictions == 0 {
		t.Fatalf("capacity-3 runs saw %d misses / %d evictions; pressure never materialized",
			tinyMisses, tinyEvictions)
	}
}

// runNIPTOps drives one seeded op sequence on a fresh two-node pair at
// the given NIPT capacity and returns fingerprints of (sender+receiver
// stats and clocks, receiver memory). Entry idx always names receiver
// page 10+idx and op k always writes at offset k*64, so distinct ops
// never overlap in destination memory — final RAM contents are then
// independent of packet timing, isolating exactly what the cache is
// allowed to change (time) from what it is not (bytes).
func runNIPTOps(t *testing.T, seed uint64, capacity int) (statsSig, ramSig string, tx Stats) {
	t.Helper()
	p := newPair(t, Config{NIPTPages: 16, PIOWindow: true,
		NIPTCapacity: capacity, NIPTRefillJitter: 32, NIPTSeed: seed})
	n0 := p.nics[0]
	rng := sim.NewRNG(seed ^ 0x0b5e55ed)
	var valid [propEntries]bool
	const ops = 48 // 48*64 < PageSize: every op's offset is unique
	for k := 0; k < ops; k++ {
		idx := uint32(rng.Intn(propEntries))
		off := uint32(k) * 64
		switch rng.Intn(6) {
		case 0: // kernel installs (or re-points) a mapping
			n0.SetNIPT(idx, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 10 + idx})
			valid[idx] = true
		case 1: // kernel tears a mapping down
			n0.SetNIPT(idx, NIPTEntry{})
			valid[idx] = false
		case 2, 3: // DMA-engine send through the entry
			if !valid[idx] {
				continue
			}
			da := device.DevAddr{Page: idx, Off: off}
			if bits := n0.CheckTransfer(da, 64, true); bits != 0 {
				t.Fatalf("seed %d op %d: CheckTransfer bits %v", seed, k, bits)
			}
			lat := n0.TransferLatency(da, 64)
			p.net.Flush()
			p.clocks[0].Advance(lat)
			if err := n0.Write(da, patternBytesT(uint64(k)+1, 64), p.clocks[0].Now()); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, k, err)
			}
		case 4: // PIO FIFO send through the entry
			if !valid[idx] {
				continue
			}
			pio := device.DevAddr{Page: 16, Off: PIORegDest}
			n0.PIOStore(pio, idx<<addr.PageShift|off)
			pat := patternBytesT(uint64(k)+1, 64)
			for w := 0; w < 16; w++ {
				word := uint32(pat[w*4]) | uint32(pat[w*4+1])<<8 |
					uint32(pat[w*4+2])<<16 | uint32(pat[w*4+3])<<24
				n0.PIOStore(device.DevAddr{Page: 16, Off: PIORegData}, word)
			}
			n0.PIOStore(device.DevAddr{Page: 16, Off: PIORegLaunch}, 0)
		case 5: // idle time on the sender
			p.net.Flush()
			p.clocks[0].Advance(sim.Cycles(rng.Intn(500)))
		}
	}
	drainPair(p)
	statsSig = fmt.Sprintf("tx=%+v rx=%+v clocks=%d,%d",
		p.nics[0].Stats(), p.nics[1].Stats(), p.clocks[0].Now(), p.clocks[1].Now())
	h := fnv.New64a()
	for f := uint32(0); f < 64; f++ {
		b, err := p.rams[1].Read(addr.PAddr(f)<<addr.PageShift, addr.PageSize)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		h.Write(b)
	}
	return statsSig, fmt.Sprintf("%016x", h.Sum64()), p.nics[0].Stats()
}
