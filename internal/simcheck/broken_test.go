package simcheck

import (
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
)

// These tests prove the auditor has teeth: each one breaks exactly one
// kernel invariant through a test hook, sweeps seeds with the scenario
// biased toward the pressure that invariant guards against, and demands
// a violation report of the matching class (with seed and step, so the
// failure is reproducible).

// sweepBroken runs seeds under the hooks/override until one report
// fails, returning that report. maxSeeds bounds the hunt.
func sweepBroken(t *testing.T, hooks kernel.TestHooks, override func(*ScenarioConfig), maxSeeds uint64) *Report {
	t.Helper()
	for seed := uint64(1); seed <= maxSeeds; seed++ {
		rep := Run(seed, Options{Hooks: hooks, Override: override})
		if rep.Failed() {
			return rep
		}
	}
	t.Fatalf("broken kernel undetected across %d seeds", maxSeeds)
	return nil
}

func wantInvariant(t *testing.T, rep *Report, accept ...string) {
	t.Helper()
	ok := map[string]bool{}
	for _, a := range accept {
		ok[a] = true
	}
	for _, v := range rep.Violations {
		if ok[v.Invariant] {
			t.Logf("caught:\n%s", rep.String())
			if v.Step < 0 {
				t.Errorf("violation carries no step: %+v", v)
			}
			return
		}
	}
	t.Fatalf("no %v violation in report:\n%s", accept, rep.String())
}

// TestBrokenI1 skips the context-switch Inval. Any scenario with two
// runnable processes trips it almost immediately.
func TestBrokenI1(t *testing.T) {
	rep := sweepBroken(t, kernel.TestHooks{SkipI1Inval: true}, nil, 8)
	wantInvariant(t, rep, "I1")
}

// TestBrokenI2 leaves stale proxy PTEs behind on eviction. Tiny RAM
// plus transfer and paging pressure forces evictions of pages that
// processes hold proxy mappings for.
func TestBrokenI2(t *testing.T) {
	rep := sweepBroken(t, kernel.TestHooks{SkipI2ProxyInval: true}, func(cfg *ScenarioConfig) {
		cfg.Nodes = 1
		cfg.Machine.RAMFrames = 24
		cfg.ProcsPerNode = 3
		cfg.OpsPerProc = 10
		cfg.Inject = cluster.InjectPlan{}
		cfg.Kills = 0
	}, 32)
	wantInvariant(t, rep, "I2", "memory", "conservation")
}

// TestBrokenI3 skips marking the real page dirty when a proxy write
// upgrade makes the proxy PTE writable. A fast cleaner then clears the
// (never-set) dirty bit while the writable proxy survives.
func TestBrokenI3(t *testing.T) {
	rep := sweepBroken(t, kernel.TestHooks{SkipI3Dirty: true}, func(cfg *ScenarioConfig) {
		cfg.Nodes = 1
		cfg.ProcsPerNode = 3
		cfg.OpsPerProc = 10
		cfg.Cleaner = true
		cfg.CleanerPeriod = 5_000
		cfg.Inject = cluster.InjectPlan{}
		cfg.Kills = 0
	}, 32)
	wantInvariant(t, rep, "I3")
}

// TestBrokenI4 lets the evictor pick frames the UDMA hardware still
// references. Slow devices keep transfers in flight long enough for
// paging pressure to steal their frames; the damage shows up as an I4
// audit hit or as corrupted bytes downstream.
func TestBrokenI4(t *testing.T) {
	rep := sweepBroken(t, kernel.TestHooks{SkipI4Guard: true}, func(cfg *ScenarioConfig) {
		cfg.Nodes = 1
		cfg.Machine.RAMFrames = 24
		cfg.Machine.UDMA.QueueDepth = 8
		cfg.Machine.UDMA.SystemQueueDepth = 2
		cfg.DeviceLatency = 20_000
		cfg.ProcsPerNode = 4
		cfg.OpsPerProc = 10
		cfg.Inject = cluster.InjectPlan{}
		cfg.Kills = 0
	}, 32)
	wantInvariant(t, rep, "I4", "conservation", "memory", "refcount")
}
