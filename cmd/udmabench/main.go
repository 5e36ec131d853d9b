// Command udmabench regenerates every table and figure of the paper's
// evaluation (and the quantitative claims of its other sections) on the
// simulated SHRIMP machine, printing the same rows and series the paper
// reports plus pass/fail shape checks.
//
// Usage:
//
//	udmabench              # run every experiment
//	udmabench -exp e1      # run one experiment (e1..e18)
//	udmabench -list        # list experiments
//	udmabench -csv dir     # also write series/tables as CSV files
//	udmabench -json FILE   # write per-experiment headline metrics as JSON
//	udmabench -plot        # draw ASCII plots for series (Figure 8 etc.)
//	udmabench -workers N   # fan rate/seed sweeps inside experiments over N goroutines
//	udmabench -cpuprofile cpu.pprof -memprofile mem.pprof
//	                       # profile the run (e.g. -exp e14 for the parallel core)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"shrimp/internal/experiments"
)

func main() {
	// The real work lives in run() so profile teardown (deferred there)
	// happens before the process exits — os.Exit in main would truncate
	// the CPU profile.
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "", "run a single experiment id (e1..e18)")
		list       = flag.Bool("list", false, "list experiments and exit")
		csv        = flag.String("csv", "", "directory to write CSV output into")
		jsonOut    = flag.String("json", "", "write per-experiment headline metrics as JSON to this file")
		plot       = flag.Bool("plot", false, "render ASCII plots for series")
		workers    = flag.Int("workers", 1, "host goroutines for the sweeps inside experiments (results identical at any value)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()
	experiments.SetSweepWorkers(*workers)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "udmabench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "udmabench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "udmabench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "udmabench: memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-4s %s\n", id, title)
		}
		return 0
	}

	ids := experiments.IDs()
	if *exp != "" {
		ids = []string{*exp}
	}

	failed := 0
	var results []*experiments.Result
	for _, id := range ids {
		res, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "udmabench: %s: %v\n", id, err)
			return 1
		}
		results = append(results, res)
		printResult(res, *plot)
		if *csv != "" {
			if err := writeCSV(*csv, res); err != nil {
				fmt.Fprintf(os.Stderr, "udmabench: csv: %v\n", err)
				return 1
			}
		}
		if !res.Passed() {
			failed++
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "udmabench: json: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "udmabench: %d experiment(s) failed their shape checks\n", failed)
		return 1
	}
	return 0
}

// jsonExperiment is the machine-readable record emitted per experiment:
// pass/fail plus the headline metrics, for CI regression tracking.
type jsonExperiment struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Passed  bool               `json:"passed"`
	Checks  []jsonCheck        `json:"checks"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type jsonCheck struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

func writeJSON(path string, results []*experiments.Result) error {
	out := make([]jsonExperiment, 0, len(results))
	for _, res := range results {
		je := jsonExperiment{
			ID:      res.ID,
			Title:   res.Title,
			Passed:  res.Passed(),
			Metrics: res.Metrics,
		}
		for _, c := range res.Checks {
			je.Checks = append(je.Checks, jsonCheck{Name: c.Name, Pass: c.Pass, Detail: c.Detail})
		}
		out = append(out, je)
	}
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	})
}

func printResult(res *experiments.Result, plot bool) {
	rule := strings.Repeat("=", 72)
	fmt.Println(rule)
	fmt.Printf("%s — %s\n", strings.ToUpper(res.ID), res.Title)
	fmt.Printf("paper: %s\n", res.Paper)
	fmt.Println(rule)
	for _, t := range res.Tables {
		fmt.Println()
		t.Render(os.Stdout)
	}
	if plot {
		for _, s := range res.Series {
			fmt.Println()
			s.PlotASCII(os.Stdout, 64, 16)
		}
	}
	fmt.Println()
	for _, c := range res.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Printf("  [%s] %s — %s\n", mark, c.Name, c.Detail)
	}
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Println()
}

func writeCSV(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, s := range res.Series {
		path := filepath.Join(dir, fmt.Sprintf("%s_series%d.csv", res.ID, i))
		if err := writeFile(path, s.WriteCSV); err != nil {
			return err
		}
	}
	for i, t := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", res.ID, i))
		if err := writeFile(path, t.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
