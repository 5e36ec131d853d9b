package telemetry

import (
	"sync"
	"testing"
)

// TestScopeConcurrentHammer drives one scope's pushed instruments from
// many goroutines at once — the shape of parallel cluster execution,
// where per-node scopes on different workers share a registry. Totals
// must be exact: the gauge high-water mark is the true peak, and
// histogram count/sum match what was observed. Run under -race this is
// also the data-race gate for satellite coverage of the telemetry
// layer.
func TestScopeConcurrentHammer(t *testing.T) {
	const (
		goroutines = 16
		perG       = 10_000
	)
	reg := New()
	sc := reg.Scope(L("node", "0"))

	g := sc.Gauge("hammer_level")
	h := sc.Histogram("hammer_lat_cycles")

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				g.Add(1)
				g.Add(-1)
				h.Observe(uint64(w*perG + i))
			}
		}(w)
	}
	wg.Wait()

	const total = goroutines * perG
	if got := g.Value(); got != 0 {
		t.Errorf("gauge level: got %d want 0", got)
	}
	if mx := g.Max(); mx < 1 || mx > goroutines {
		t.Errorf("gauge max %d outside [1,%d]", mx, goroutines)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count: got %d want %d", got, total)
	}
	// Sum over all observed values w*perG+i = sum of 0..total-1.
	wantSum := uint64(total) * uint64(total-1) / 2
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum: got %d want %d", got, wantSum)
	}
	if got := h.Min(); got != 0 {
		t.Errorf("histogram min: got %d want 0", got)
	}
	if got := h.Max(); got != total-1 {
		t.Errorf("histogram max: got %d want %d", got, total-1)
	}
}
