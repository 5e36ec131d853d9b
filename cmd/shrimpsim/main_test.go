package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shrimp/internal/experiments"
	"shrimp/internal/golden"
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

// TestFlagRanges pins parse-time range checks: each line below used to
// panic, run a silently clamped or defaulted machine, or print one value
// and run another. parseArgs must refuse it with an error naming the
// flag, and every golden scenario line must still parse.
func TestFlagRanges(t *testing.T) {
	for _, line := range []string{
		"-scenario cluster -nodes 0",
		"-scenario send -nodes -1",
		"-scenario incast -nodes 1",
		"-scenario serve -nodes 1",
		"-scenario churn -nodes 1",
		"-scenario chaos -nodes 1",
		"-scenario send -size 0",
		"-scenario contention -senders -1",
		"-scenario share -senders 0",
		"-scenario fuzz -count 0",
		"-scenario cluster -workers 0",
		"-scenario serve -rate 0",
		"-scenario churn -rate -5",
		"-scenario churn -capacity -1",
		"-scenario share -size 4100",
		"-scenario share -size 8192",
		"-scenario contention -size 8192",
		"-scenario send -size 6",
		"-scenario cluster -size 6",
		"-scenario paging -size 6",
		"-scenario paging -size 32772",
		"-scenario cluster -size 266240",
	} {
		args := strings.Fields(line)
		fs := flag.NewFlagSet("shrimpsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseArgs(fs, args)
		if flagName := args[2]; err == nil || !strings.HasPrefix(err.Error(), flagName+" ") {
			t.Errorf("parse %q: err = %v, want one naming %s", line, err, flagName)
		}
	}
	for _, sc := range scenarioLines {
		parse(t, strings.Fields(sc.args)...)
	}
	parse(t, "-scenario", "cluster", "-nodes", "1")
	parse(t, "-scenario", "churn", "-capacity", "0")
	parse(t, "-scenario", "share", "-size", "4096")
	parse(t, "-scenario", "paging", "-size", "32768")
	parse(t, "-scenario", "cluster", "-size", "262144")
}

// unseededFlags is the second flag set the unseeded scenarios run
// under: a wider cluster, two-page messages and more senders. share and
// contention give each sender one device page, so their wide runs send
// half-page messages (sharedFlags).
const (
	unseededFlags = " -nodes 8 -size 8192 -senders 6"
	sharedFlags   = " -nodes 8 -size 2048 -senders 6"
)

// scenarioLines is the golden table of shrimpsim runs: the unseeded
// scenarios at their default flags and at unseededFlags, then the
// seeded ones, each of which also proves itself in-process (a rerun
// plus another worker count). Each line's stdout must match
// testdata/golden/shrimpsim/<name>.txt byte for byte.
var scenarioLines = []struct{ name, args string }{
	{"send-trace", "-scenario send -trace"},
	{"cluster", "-scenario cluster"},
	{"share", "-scenario share"},
	{"paging", "-scenario paging"},
	{"autoupdate", "-scenario autoupdate"},
	{"contention", "-scenario contention"},
	{"send-trace-wide", "-scenario send -trace" + unseededFlags},
	{"cluster-wide", "-scenario cluster" + unseededFlags},
	{"share-wide", "-scenario share" + sharedFlags},
	{"paging-wide", "-scenario paging" + unseededFlags},
	{"autoupdate-wide", "-scenario autoupdate" + unseededFlags},
	{"contention-wide", "-scenario contention" + sharedFlags},
	{"faults", "-scenario faults"},
	{"lossy", "-scenario lossy"},
	{"serve", "-scenario serve"},
	{"churn", "-scenario churn"},
	{"chaos", "-scenario chaos"},
	{"incast-mesh64", "-scenario incast -nodes 64 -topology mesh"},
	{"incast-torus16-w4", "-scenario incast -nodes 16 -topology torus -workers 4"},
	{"fuzz-25", "-scenario fuzz -seed 1 -count 25"},
}

// runLine runs one shrimpsim command line in-process, as main does, and
// returns what it printed to stdout.
func runLine(t *testing.T, args ...string) string {
	t.Helper()
	a := parse(t, args...)
	defer experiments.SetSweepWorkers(1)
	var err error
	out := golden.Stdout(t, func() { err = run(a) })
	if err != nil {
		t.Fatalf("shrimpsim %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// TestScenarioGolden runs every scenarioLines entry and compares its
// output with the golden record. A last run of the serve scenario with
// -trace-out must print the serve golden plus the trace line (the
// exporter is a pure observer), and the trace must show interval events
// on at least two node processes.
func TestScenarioGolden(t *testing.T) {
	for _, sc := range scenarioLines {
		t.Run(sc.name, func(t *testing.T) {
			golden.Check(t, "shrimpsim/"+sc.name+".txt", runLine(t, strings.Fields(sc.args)...))
		})
	}
	t.Run("serve-trace", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "serve.json")
		out := runLine(t, "-scenario", "serve", "-trace-out", path)
		line := "trace written to " + path + " (open at https://ui.perfetto.dev)\n"
		if !strings.HasSuffix(out, line) {
			t.Errorf("serve -trace-out did not end with %q", line)
		}
		golden.Check(t, "shrimpsim/serve.txt", strings.TrimSuffix(out, line))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var events []struct {
			Ph  string  `json:"ph"`
			Pid int     `json:"pid"`
			Dur float64 `json:"dur"`
		}
		if err := json.Unmarshal(raw, &events); err != nil {
			t.Fatal(err)
		}
		pids := map[int]bool{}
		for _, e := range events {
			if e.Ph == "X" && e.Dur > 0 {
				pids[e.Pid] = true
			}
		}
		if len(pids) < 2 {
			t.Errorf("interval events from %d node processes, want >= 2", len(pids))
		}
	})
}
