package main

import (
	"bytes"
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
	for _, sc := range scenarios {
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
// and run another — or, for a flag the run does not read (a flag the
// scenario's table row does not list, a scenario flag with -exp, an -exp
// output flag without it), ignore the flag and exit 0. parseArgs must
// refuse it with an error naming the flag (the third word of the line),
// and every golden line must still parse.
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
		"-exp e1 -nodes 8",
		"-exp e1 -metrics",
		"-exp all -scenario serve",
		"-exp e14 -seed 3",
		"-exp e1 -list",
		"-scenario send -json f",
		"-scenario send -csv d",
		"-scenario send -plot",
		"-workers 2 -exp e99",
		"-workers 2 -exp E1",
		"-scenario send -nodes 8",
		"-scenario send -workers 2",
		"-scenario autoupdate -seed 9",
		"-scenario incast -size 8192",
		"-scenario chaos -capacity 3",
		"-scenario fuzz -metrics",
		"-scenario faults -trace-out t.json",
		"-scenario lossy -metrics-out m.json",
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
	parse(t, strings.Fields("-exp all -csv d -json f -plot -workers 2 -cpuprofile c -memprofile m")...)
}

// TestRefusedAtParse pins refusals TestFlagRanges' line shape cannot
// state: a -scenario the table does not name, a flag given with -list
// (which reads no other), and a word that is not a flag (flag parsing
// stops there, so the flags after it would be dropped). Each fails at
// parse (main's exit 2), not when the run starts.
func TestRefusedAtParse(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"-scenario bogus", "-scenario bogus: "},
		{"-list -scenario serve", "-scenario serve: "},
		{"-list -workers 2", "-workers 2: "},
		{"-scenario cluster 8 -nodes 8", "8: "},
	} {
		fs := flag.NewFlagSet("shrimpsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parseArgs(fs, strings.Fields(tc.line)); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("parse %q: err = %v, want one starting %q", tc.line, err, tc.want)
		}
	}
}

// scenarioLines is the golden table of shrimpsim runs: the unseeded
// scenarios at their default flags and again with the flags they read
// widened (a wider cluster, two-page messages, more senders; share and
// contention give each sender one device page, so they send half-page
// messages), then the seeded ones, each of which also proves itself
// in-process (a rerun plus another worker count), then one experiment
// with its header, plot, checks and notes, then the -list readout. Each
// line's stdout must match testdata/golden/shrimpsim/<name>.txt byte for
// byte.
var scenarioLines = []struct{ name, args string }{
	{"send-trace", "-scenario send -trace"},
	{"cluster", "-scenario cluster"},
	{"share", "-scenario share"},
	{"paging", "-scenario paging"},
	{"autoupdate", "-scenario autoupdate"},
	{"contention", "-scenario contention"},
	{"send-trace-wide", "-scenario send -trace -size 8192"},
	{"cluster-wide", "-scenario cluster -nodes 8 -size 8192"},
	{"share-wide", "-scenario share -size 2048 -senders 6"},
	{"paging-wide", "-scenario paging -size 8192"},
	{"contention-wide", "-scenario contention -size 2048 -senders 6"},
	{"faults", "-scenario faults"},
	{"lossy", "-scenario lossy"},
	{"serve", "-scenario serve"},
	{"churn", "-scenario churn"},
	{"chaos", "-scenario chaos"},
	{"incast-mesh64", "-scenario incast -nodes 64 -topology mesh"},
	{"incast-torus16-w4", "-scenario incast -nodes 16 -topology torus -workers 4"},
	{"fuzz-25", "-scenario fuzz -seed 1 -count 25"},
	{"exp-e1-plot", "-exp e1 -plot"},
	{"list", "-list"},
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

// TestExpJSON runs -exp e14 -json and decodes the record: CI's e14
// floor reads its id and the host_cpus and speedup_workers_4/_8
// metrics, and each check must be one of the e14 golden check lines.
func TestExpJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	runLine(t, "-exp", "e14", "-json", path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The record's keys in their order, matched case-sensitively as the
	// JSON's readers match them (json.Unmarshal would not).
	at := 0
	for _, key := range []string{`"id":`, `"title":`, `"passed":`, `"checks":`, `"name":`, `"pass":`, `"detail":`, `"metrics":`} {
		i := bytes.Index(raw[at:], []byte(key))
		if i < 0 {
			t.Fatalf("no %s key after byte %d of the record:\n%s", key, at, raw)
		}
		at += i
	}
	var records []struct {
		ID      string              `json:"id"`
		Passed  bool                `json:"passed"`
		Checks  []experiments.Check `json:"checks"`
		Metrics map[string]float64  `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].ID != "e14" || !records[0].Passed {
		t.Fatalf("records = %+v, want one passing e14", records)
	}
	e14, err := os.ReadFile("../../testdata/golden/experiments/e14.txt")
	if err != nil {
		t.Fatal(err)
	}
	rec := records[0]
	if len(rec.Checks) != 3 {
		t.Errorf("%d checks, want e14's 3", len(rec.Checks))
	}
	for _, c := range rec.Checks {
		if line := "[PASS] " + c.Name + " — " + c.Detail + "\n"; !c.Pass || !strings.Contains(string(e14), line) {
			t.Errorf("check %+v is not a passing e14 golden check line", c)
		}
	}
	for _, key := range []string{"host_cpus", "speedup_workers_4", "speedup_workers_8"} {
		if _, ok := rec.Metrics[key]; !ok {
			t.Errorf("metrics lack %q: %v", key, rec.Metrics)
		}
	}
}

// TestExpCSV runs -exp e1 -csv: Figure 8's series and table land in
// the directory as e1_series<i>.csv and e1_table<i>.csv.
func TestExpCSV(t *testing.T) {
	dir := t.TempDir()
	runLine(t, "-exp", "e1", "-csv", dir)
	for _, pattern := range []string{"e1_series*.csv", "e1_table*.csv"} {
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil || len(files) == 0 {
			t.Fatalf("no %s in %s (err %v)", pattern, dir, err)
		}
		for _, f := range files {
			if raw, err := os.ReadFile(f); err != nil || !bytes.Contains(raw, []byte(",")) {
				t.Errorf("%s: not CSV (err %v): %q", f, err, raw)
			}
		}
	}
}

// TestProfilesSurviveAFailingRun runs a chaos line whose crash schedule
// never fires, so the run fails, under both profile flags: runProfiled
// must still stop the CPU profile and write the allocation profile
// (both gzip-compressed pprof files) before main would exit.
func TestProfilesSurviveAFailingRun(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	a := parse(t, "-scenario", "chaos", "-seed", "2", "-nodes", "2", "-cpuprofile", cpu, "-memprofile", mem)
	defer experiments.SetSweepWorkers(1)
	status := 0
	golden.Stdout(t, func() { status = runProfiled(a) })
	if status != 1 {
		t.Fatalf("exit status %d, want 1 (the crash schedule never fires at seed 2 on 2 nodes)", status)
	}
	for _, path := range []string{cpu, mem} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes without the gzip magic", filepath.Base(path), len(raw))
		}
	}
}
