package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload at a tiny size at workers 1, on
// a rerun and at workers 2: the fingerprints must agree and every
// correctness check must pass.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var fps []string
			for _, workers := range []int{1, 1, 2} {
				tr, err := w.run(w.seed, w.tiny, workers, nil)
				if err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				for _, c := range tr.checks {
					if !c.OK {
						t.Errorf("workers %d: check %q failed: %s", workers, c.Name, c.Detail)
					}
				}
				if tr.failed != 0 || tr.attempted == 0 || tr.latSamples == 0 {
					t.Errorf("workers %d: attempted %d failed %d samples %d", workers, tr.attempted, tr.failed, tr.latSamples)
				}
				fps = append(fps, tr.fingerprint)
			}
			if fps[0] != fps[1] || fps[1] != fps[2] {
				t.Errorf("fingerprints differ across rerun / worker count: %v", fps)
			}
			other, err := w.run(w.seed+1, w.tiny, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if other.fingerprint == fps[0] {
				t.Errorf("seed %d and %d gave the same fingerprint: the seed does not reach the inputs", w.seed, w.seed+1)
			}
		})
	}
}

// TestTracedReport runs one traced measurement at a tiny size and checks
// it reports every per-layer metric, with the layer times summing to
// the profiled CPU and the registry-fed counts present.
func TestTracedReport(t *testing.T) {
	w, err := findWorkload("serve-4n")
	if err != nil {
		t.Fatal(err)
	}
	// A tiny size at a non-default seed: the full-size pin does not apply.
	w.size = w.tiny
	rep, err := measure(w, w.seed+1, 0.2, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		if !c.OK {
			t.Errorf("check %q failed: %s", c.Name, c.Detail)
		}
	}
	for _, d := range append(perLayer(), endToEnd...) {
		v, ok := rep.Metrics[d.name]
		if !ok {
			t.Errorf("missing metric %s", d.name)
			continue
		}
		if v.Unit != d.unit {
			t.Errorf("%s: unit %q, want %q", d.name, v.Unit, d.unit)
		}
	}
	if rep.Metrics["sim.nic.packets_sent"].Value == 0 || rep.Metrics["sim.kernel.context_switches"].Value == 0 {
		t.Errorf("registry counts missing: %+v", rep.Metrics)
	}
	if _, err := os.Stat(rep.Profile); err != nil {
		t.Errorf("profile artifact: %v", err)
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the metric definitions here: the host end-to-end metrics with their
// bounds, every per-layer metric, and the workload names.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, want %v", names, want)
	}
	var host []metricDef
	for _, d := range endToEnd {
		if d.host {
			host = append(host, d)
		}
	}
	if len(b.EndToEnd) != len(host) {
		t.Fatalf("%d end_to_end metrics, want %d", len(b.EndToEnd), len(host))
	}
	for i, d := range host {
		m := b.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, d)
		}
	}
	pl := perLayer()
	if len(b.PerLayer) != len(pl) {
		t.Fatalf("%d per_layer metrics, want %d", len(b.PerLayer), len(pl))
	}
	for i, d := range pl {
		m := b.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, d)
		}
	}
}

func TestBaselinePinsEveryWorkload(t *testing.T) {
	b, err := loadBaseline()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(b.Fingerprints[w.name]) != 16 {
			t.Errorf("%s: no fingerprint pin", w.name)
		}
		if b.Medians[w.name]["msgs_per_s"] <= 0 {
			t.Errorf("%s: no baseline median", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{name: "msgs_per_s", better: "higher", bound: 0.05, host: true}
	sim := metricDef{name: "sim_p50_us", better: "lower"}
	cases := []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{rate, []float64{100, 101, 99, 100, 100}, []float64{100, 99, 101, 100, 100}, "unchanged"},
		{rate, []float64{100, 101, 99, 100, 100}, []float64{90, 89, 91, 90, 90}, "regressed"},
		{rate, []float64{100, 101, 99, 100, 100}, []float64{120, 121, 119, 120, 120}, "improved"},
		{rate, []float64{100, 130, 70, 100, 100}, []float64{95, 130, 70, 95, 95}, "unresolved"},
		{sim, []float64{138.2, 150}, []float64{138.2, 150}, "unchanged"},
		{sim, []float64{138.2, 150}, []float64{140, 150}, "regressed"},
		{sim, []float64{138.2, 150}, []float64{130, 150}, "improved"},
		{sim, []float64{138.2, 150}, []float64{130, 151}, "regressed"},
	}
	for i, c := range cases {
		if got := judge(c.def, c.a, c.b).result; got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}
