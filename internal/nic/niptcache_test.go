package nic

import (
	"fmt"
	"testing"

	"shrimp/internal/device"
	"shrimp/internal/sim"
)

// base TransferLatency without any cache effect (SHRIMP1996 costs).
func baseXferLat(p *pair) int64 {
	return int64(p.nics[0].TransferLatency(device.DevAddr{Page: 9999, Off: 0}, 64))
}

func TestNIPTCacheLRUEviction(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 16, NIPTCapacity: 2})
	n := p.nics[0]
	for idx := uint32(0); idx < 3; idx++ {
		n.SetNIPT(idx, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7 + idx})
	}
	// Write-allocate at capacity 2: installing 0,1,2 evicts 0 (LRU).
	if n.NIPTResident(0) || !n.NIPTResident(1) || !n.NIPTResident(2) {
		t.Fatalf("resident after installs: 0=%v 1=%v 2=%v",
			n.NIPTResident(0), n.NIPTResident(1), n.NIPTResident(2))
	}
	if s := n.Stats(); s.NIPTEvictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.NIPTEvictions)
	}
	// Touch 1 (hit), then miss on 0: the LRU line is now 2.
	if lat := n.TransferLatency(device.DevAddr{Page: 1, Off: 0}, 64); int64(lat) != baseXferLat(p) {
		t.Fatalf("hit charged extra latency: %d", lat)
	}
	n.Write(device.DevAddr{Page: 1, Off: 0}, []byte{1, 2, 3, 4}, 0) // release the pin
	missLat := n.TransferLatency(device.DevAddr{Page: 0, Off: 0}, 64)
	if int64(missLat) != baseXferLat(p)+int64(niptRefill) {
		t.Fatalf("miss latency = %d, want base+%d", missLat, niptRefill)
	}
	n.Write(device.DevAddr{Page: 0, Off: 0}, []byte{1, 2, 3, 4}, 0)
	if n.NIPTResident(2) || !n.NIPTResident(0) || !n.NIPTResident(1) {
		t.Fatalf("LRU eviction picked the wrong victim")
	}
	s := n.Stats()
	if s.NIPTHits+s.NIPTMisses != s.NIPTLookups {
		t.Fatalf("hits %d + misses %d != lookups %d", s.NIPTHits, s.NIPTMisses, s.NIPTLookups)
	}
	if s.NIPTRefillCycles != uint64(niptRefill) {
		t.Fatalf("refill cycles = %d, want %d", s.NIPTRefillCycles, niptRefill)
	}
}

func TestNIPTCachePinBlocksEviction(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 16, NIPTCapacity: 1})
	n := p.nics[0]
	n.SetNIPT(4, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7})
	n.TransferLatency(device.DevAddr{Page: 4, Off: 0}, 64) // pins entry 4
	if idx, ok := n.NIPTPinned(); !ok || idx != 4 {
		t.Fatalf("pinned = (%d,%v), want (4,true)", idx, ok)
	}
	// Capacity pressure while the transfer is in flight: the install of
	// entry 5 must bypass the cache rather than evict the pinned line.
	n.SetNIPT(5, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 8})
	if !n.NIPTResident(4) || n.NIPTResident(5) {
		t.Fatalf("pinned entry evicted under capacity pressure")
	}
	if s := n.Stats(); s.NIPTEvictions != 0 {
		t.Fatalf("evictions = %d, want 0 (only candidate pinned)", s.NIPTEvictions)
	}
	// Transfer completion releases the pin; the next miss may evict.
	n.Write(device.DevAddr{Page: 4, Off: 0}, []byte{1, 2, 3, 4}, 0)
	if _, ok := n.NIPTPinned(); ok {
		t.Fatalf("pin survived the completion Write")
	}
	n.TransferLatency(device.DevAddr{Page: 5, Off: 0}, 64)
	if n.NIPTResident(4) || !n.NIPTResident(5) {
		t.Fatalf("post-release miss did not evict the stale line")
	}
}

func TestNIPTCacheInvalidateDropsResidencyAndPin(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 16, NIPTCapacity: 4})
	n := p.nics[0]
	n.SetNIPT(2, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7})
	n.TransferLatency(device.DevAddr{Page: 2, Off: 0}, 64) // pin 2
	// Software tears the entry down mid-flight: residency and pin go
	// (the doomed Write will fail on the invalid backing entry anyway),
	// and no eviction is counted — this is an invalidation.
	n.SetNIPT(2, NIPTEntry{})
	if n.NIPTResident(2) {
		t.Fatalf("invalidated entry still resident")
	}
	if _, ok := n.NIPTPinned(); ok {
		t.Fatalf("pin survived invalidation")
	}
	if err := n.Write(device.DevAddr{Page: 2, Off: 0}, []byte{1, 2, 3, 4}, 0); err == nil {
		t.Fatalf("Write through invalidated entry succeeded")
	}
	if s := n.Stats(); s.NIPTEvictions != 0 {
		t.Fatalf("invalidation counted as eviction")
	}
}

func TestNIPTRefillJitterSeededDeterministic(t *testing.T) {
	run := func(seed uint64) []int64 {
		p := newPair(t, Config{NIPTPages: 16, NIPTCapacity: 1,
			NIPTRefillJitter: 64, NIPTSeed: seed})
		n := p.nics[0]
		n.SetNIPT(0, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7})
		n.SetNIPT(1, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 8})
		var lats []int64
		for i := 0; i < 8; i++ {
			da := device.DevAddr{Page: uint32(i % 2), Off: 0}
			lats = append(lats, int64(n.TransferLatency(da, 64)))
			n.Write(da, []byte{1, 2, 3, 4}, 0)
		}
		return lats
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at miss %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNIPTCapacityZeroIsUnbounded(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 16})
	n := p.nics[0]
	n.SetNIPT(3, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7})
	for i := 0; i < 5; i++ {
		n.TransferLatency(device.DevAddr{Page: 3, Off: 0}, 64)
	}
	s := n.Stats()
	if s.NIPTLookups != 5 || s.NIPTHits != 5 || s.NIPTMisses != 0 {
		t.Fatalf("unbounded stats %+v", s)
	}
	if n.NIPTResidentCount() != -1 || !n.NIPTResident(9) {
		t.Fatalf("unbounded board should report the whole table resident")
	}
}

// refNIPTCache is the map-based residency tracker: every resident entry
// maps to its last access tick, and an eviction walks the whole map for
// the lowest unpinned tick. TestNIPTCacheMatchesMapReference runs the
// board's cache against it.
type refNIPTCache struct {
	cap    int
	lines  map[uint32]uint64
	tick   uint64
	jitter sim.Cycles
	rng    *sim.RNG
	pinned uint32
	hasPin bool
	stats  Stats
}

func (c *refNIPTCache) lookup(idx uint32, pin bool) sim.Cycles {
	c.stats.NIPTLookups++
	if pin {
		c.hasPin = false
	}
	if _, ok := c.lines[idx]; ok {
		c.tick++
		c.lines[idx] = c.tick
		c.stats.NIPTHits++
		if pin {
			c.pinned, c.hasPin = idx, true
		}
		return 0
	}
	c.stats.NIPTMisses++
	cost := niptRefill
	if c.jitter > 0 {
		cost += sim.Cycles(c.rng.Intn(int(c.jitter)))
	}
	c.stats.NIPTRefillCycles += uint64(cost)
	if c.install(idx) && pin {
		c.pinned, c.hasPin = idx, true
	}
	return cost
}

func (c *refNIPTCache) install(idx uint32) bool {
	if _, ok := c.lines[idx]; !ok && len(c.lines) >= c.cap {
		victim, found := uint32(0), false
		for i, used := range c.lines {
			if (!c.hasPin || i != c.pinned) && (!found || used < c.lines[victim]) {
				victim, found = i, true
			}
		}
		if !found {
			return false
		}
		delete(c.lines, victim)
		c.stats.NIPTEvictions++
	}
	c.tick++
	c.lines[idx] = c.tick
	return true
}

func (c *refNIPTCache) invalidate(idx uint32) {
	delete(c.lines, idx)
	if c.hasPin && c.pinned == idx {
		c.hasPin = false
	}
}

// TestNIPTCacheMatchesMapReference runs random lookup (pinned and not),
// install, invalidate and pin-release sequences on the board's cache
// and on the map-based reference, at capacities 1, 2, 8 and 24 with
// refill jitter, and wants the same refill costs, install results,
// Stats, resident set and pin after every step.
func TestNIPTCacheMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 8, 24} {
		for seed := uint64(1); seed <= 4; seed++ {
			pages := uint32(2*capacity + 3)
			cfg := Config{NIPTPages: pages, NIPTCapacity: capacity, NIPTRefillJitter: 16, NIPTSeed: seed}
			n := newPair(t, cfg).nics[0]
			ref := &refNIPTCache{cap: capacity, lines: map[uint32]uint64{}, jitter: cfg.NIPTRefillJitter,
				rng: sim.NewRNG(cfg.NIPTSeed ^ 0x9E3779B97F4A7C15)}
			ops := sim.NewRNG(seed * 977)
			for step := 0; step < 3000; step++ {
				idx := uint32(ops.Intn(int(pages)))
				var op string
				switch k := ops.Intn(10); {
				case k < 5:
					pin := k < 2
					op = fmt.Sprintf("lookup(%d, pin=%v)", idx, pin)
					if got, want := n.lookupNIPT(idx, pin), ref.lookup(idx, pin); got != want {
						t.Fatalf("cap %d seed %d step %d %s: cost %d, want %d", capacity, seed, step, op, got, want)
					}
				case k < 7:
					op = fmt.Sprintf("install(%d)", idx)
					if got, want := n.installLine(idx), ref.install(idx); got != want {
						t.Fatalf("cap %d seed %d step %d %s = %v, want %v", capacity, seed, step, op, got, want)
					}
				case k < 8:
					op = fmt.Sprintf("invalidate(%d)", idx)
					n.invalidateLine(idx)
					ref.invalidate(idx)
				default:
					if ref.hasPin && ops.Bool() {
						idx = ref.pinned // release the pin itself half the time
					}
					op = fmt.Sprintf("releasePin(%d)", idx)
					n.releasePin(idx)
					if ref.hasPin && ref.pinned == idx {
						ref.hasPin = false
					}
				}
				if got := n.Stats(); got != ref.stats {
					t.Fatalf("cap %d seed %d step %d %s: Stats %+v, want %+v", capacity, seed, step, op, got, ref.stats)
				}
				if got := n.NIPTResidentCount(); got != len(ref.lines) {
					t.Fatalf("cap %d seed %d step %d %s: %d resident, want %d", capacity, seed, step, op, got, len(ref.lines))
				}
				for i := uint32(0); i < pages; i++ {
					if _, want := ref.lines[i]; n.NIPTResident(i) != want {
						t.Fatalf("cap %d seed %d step %d %s: entry %d resident %v, want %v", capacity, seed, step, op, i, !want, want)
					}
				}
				pinIdx, pinned := n.NIPTPinned()
				if pinned != ref.hasPin || (pinned && pinIdx != ref.pinned) {
					t.Fatalf("cap %d seed %d step %d %s: pin (%d, %v), want (%d, %v)", capacity, seed, step, op, pinIdx, pinned, ref.pinned, ref.hasPin)
				}
			}
		}
	}
}
