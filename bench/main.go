// Command bench is the simulator's performance benchmark: four canonical
// workloads driven through the layers' public entry points, each run in
// its own process, reporting host and simulated end-to-end metrics and,
// with -trace 1, per-layer cost attributed from a CPU profile, the
// telemetry registry and microbenchmarks. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty: every workload, one process each)")
		seed    = flag.Uint64("seed", 0, "input seed (0: the workload's default seed)")
		seconds = flag.Float64("seconds", 10, "timed-trial budget per run, in seconds")
		trace   = flag.Int("trace", 0, "1: also report the per-layer metrics")
		out     = flag.String("out", os.TempDir(), "directory for traced-run artifacts (CPU profiles)")
		check   = flag.Bool("check", false, "verify determinism and the fingerprint pins, then exit")
		compare = flag.Bool("compare", false, "compare two JSONL files of reports: -compare A.jsonl B.jsonl")
	)
	flag.Parse()

	switch {
	case *check:
		if !runCheck(os.Stdout) {
			os.Exit(1)
		}
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two files")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	case *name == "":
		if !runAll(*seed, *seconds, *trace, *out) {
			os.Exit(1)
		}
	default:
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		s := *seed
		if s == 0 {
			s = w.seed
		}
		if !runOne(w, s, *seconds, *trace == 1, *out) {
			os.Exit(1)
		}
	}
}

// runAll runs every workload in a child process of its own, one after
// another, so no workload's heap or scheduler state leaks into the next.
func runAll(seed uint64, seconds float64, trace int, out string) bool {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	ok := true
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			ok = false
		}
	}
	return ok
}

// result is the run's last output line: the correctness verdict, the
// message counts and the metrics of the run's kind (end-to-end host
// metrics untraced, per-layer metrics traced).
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne measures one workload and prints its report line, then the
// result line. It reports false on an error or a failed check.
func runOne(w workload, seed uint64, seconds float64, traced bool, out string) bool {
	rep, err := measure(w, seed, seconds, traced, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return false
	}
	res := result{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]value{}}
	defs := perLayer()
	if !traced {
		defs = nil
		for _, d := range endToEnd {
			if d.host {
				defs = append(defs, d)
			}
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = rep.Metrics[d.name]
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	for _, c := range rep.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s %s\n", w.name, c.Name, c.Detail)
		}
	}
	return res.Correct
}
