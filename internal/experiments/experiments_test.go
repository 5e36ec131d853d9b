package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"shrimp/internal/golden"
)

// TestAllExperimentsPass runs every registered experiment and requires
// every shape check against the paper to pass. This is the repository's
// reproduction gate: if the simulator or cost model drifts, the knees
// of the paper's curves move and these fail. Each experiment's rendering
// must also match testdata/golden/experiments/<id>.txt byte for byte, so
// a change that moves any simulated number shows up as a golden diff
// even when every shape check still passes.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds; skipped with -short")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			for _, c := range res.Checks {
				if c.Pass {
					t.Logf("PASS %s: %s", c.Name, c.Detail)
				} else {
					t.Errorf("FAIL %s: %s", c.Name, c.Detail)
				}
			}
			if len(res.Checks) == 0 {
				t.Error("experiment declared no checks")
			}
			if len(res.Tables) == 0 && len(res.Series) == 0 {
				t.Error("experiment produced no output")
			}
			golden.Check(t, "experiments/"+id+".txt", renderGolden(res))
		})
	}
}

// renderGolden is an experiment's golden rendering: its tables, checks
// with details, notes and sorted metrics. e14 measures host wall-clock
// time, so only its checks and *barrier_rounds metrics go in; its
// tables, notes and the host_cpus, wall-ms and speedup metrics vary by
// host and run.
func renderGolden(res *Result) string {
	var b strings.Builder
	wallClock := res.ID == "e14"
	if !wallClock {
		for _, tbl := range res.Tables {
			tbl.Render(&b)
			b.WriteString("\n")
		}
	}
	for _, c := range res.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s — %s\n", mark, c.Name, c.Detail)
	}
	if !wallClock {
		for _, n := range res.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		if !wallClock || strings.HasSuffix(k, "barrier_rounds") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s = %v\n", k, res.Metrics[k])
	}
	return b.String()
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 18 {
		t.Fatalf("registry has %d experiments, want 18: %v", len(ids), ids)
	}
	if ids[0] != "e1" || ids[len(ids)-1] != "e18" {
		t.Fatalf("ids out of order: %v", ids)
	}
	for _, id := range ids {
		title, ok := Title(id)
		if !ok || title == "" {
			t.Errorf("no title for %s", id)
		}
	}
	if _, ok := Title("nope"); ok {
		t.Error("Title(nope) claimed to exist")
	}
	if _, err := Run("nope"); err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Errorf("Run(nope) = %v", err)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{ID: "x"}
	r.check("a", true, "fine")
	if !r.Passed() {
		t.Fatal("Passed false with all-pass checks")
	}
	r.check("b", false, "broken %d", 7)
	if r.Passed() {
		t.Fatal("Passed true with a failing check")
	}
	if r.Checks[1].Detail != "broken 7" {
		t.Fatalf("detail = %q", r.Checks[1].Detail)
	}
}
