package main

import (
	"flag"
	"io"
	"testing"

	"shrimp/internal/experiments"
)

func parse(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("shrimpsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	a, err := parseArgs(fs, args)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return a
}

// TestExplicitSeedReachesScenario pins the -seed resolution: every seeded
// scenario runs with its own default seed when -seed is absent, and an
// explicit -seed reaches it unchanged — even when it equals another
// scenario's default.
func TestExplicitSeedReachesScenario(t *testing.T) {
	for _, sc := range scenarioIndex {
		if sc.seed == 0 {
			continue
		}
		if got := parse(t, "-scenario", sc.name).seed; got != sc.seed {
			t.Errorf("%s without -seed: seed %#x, want its default %#x", sc.name, got, sc.seed)
		}
		if got := parse(t, "-scenario", sc.name, "-seed", "0x5eedfa17").seed; got != experiments.FaultSeed {
			t.Errorf("%s -seed 0x5eedfa17: seed %#x, want %#x", sc.name, got, uint64(experiments.FaultSeed))
		}
	}
}

// TestUnseededScenarios runs each scenario that has no seed and no
// reproducibility proof once at its default flags; each must finish
// without error.
func TestUnseededScenarios(t *testing.T) {
	for _, name := range []string{"send", "cluster", "share", "paging", "autoupdate", "contention"} {
		a := parse(t, "-scenario", name)
		if err := runScenario(a, newObs(a.metrics, a.withTrace, a.metricsOut, a.traceOut)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
