package core

import (
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/raceflag"
)

// TestQueuedInitiationsDoNotAllocate: with a request queue, a steady
// stream of queued initiations reuses the queues' backing arrays and
// the reference-count register, so a request allocates nothing once
// the first round has warmed them up.
func TestQueuedInitiationsDoNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const depth = 4
	r := newRig(t, Config{QueueDepth: depth})
	round := func() {
		// One transfer in flight and depth queued behind it.
		for i := 0; i <= depth; i++ {
			src := addr.PAddr(0x5000 + i*addr.PageSize)
			if st := r.initiate(addr.DevProxy(uint32(i%4), 0), addr.Proxy(src), 256); !st.Initiated() {
				t.Fatalf("initiation %d failed: %v", i, st)
			}
		}
		r.clock.RunUntilIdle()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round of %d queued initiations allocates %v times, want 0", depth+1, allocs)
	}
	if got := r.ctl.Stats().MaxQueueLen; got != depth {
		t.Fatalf("MaxQueueLen = %d, want %d", got, depth)
	}
}
