package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readReports loads the report lines of a JSONL file; other lines (such
// as the trailing result line, or log text) are skipped.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r report
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile with
// the exclusive method (Python's statistics.quantiles(xs, n=4)).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// verdict is the choosing-metrics §8 rule for one (workload, metric)
// of the host: improved when the change wins at least nine tenths of the
// pairs and the medians differ by more than the parent's quartile
// spread; unresolved when either side's spread exceeds the bound (unless
// every change run beats every parent run); regressed when the change's
// median is worse than the parent's by more than the bound; else
// unchanged. A simulated metric is exact: run i of each side used the
// same seed, so any pair that differs is a model change, reported as
// regressed if any pair got worse and improved otherwise.
type verdict struct {
	a1, a2, a3, b1, b2, b3 float64
	wins, pairs            int
	change                 float64 // relative, signed so positive is worse
	result                 string
}

func judge(def metricDef, a, b []float64) verdict {
	v := verdict{}
	v.a1, v.a2, v.a3 = quartiles(a)
	v.b1, v.b2, v.b3 = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if def.better == "higher" {
			return x > y
		}
		return x < y
	}
	v.pairs = len(a)
	if len(b) < v.pairs {
		v.pairs = len(b)
	}
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	rel := func(d, base float64) float64 {
		if base == 0 {
			if d == 0 {
				return 0
			}
			return d / abs(d) // any move off zero counts as a whole unit
		}
		return d / abs(base)
	}
	v.change = rel(v.b2-v.a2, v.a2)
	if def.better == "higher" {
		v.change = -v.change
	}
	if !def.host {
		v.result = "unchanged"
		for i := 0; i < v.pairs; i++ {
			switch {
			case better(a[i], b[i]):
				v.result = "regressed"
			case better(b[i], a[i]) && v.result == "unchanged":
				v.result = "improved"
			}
		}
		return v
	}
	spread := rel(v.a3-v.a1, v.a2)
	if s := rel(v.b3-v.b1, v.b2); s > spread {
		spread = s
	}
	switch {
	case v.pairs > 0 && float64(v.wins) >= 0.9*float64(v.pairs) && v.change < 0 && abs(v.b2-v.a2) > v.a3-v.a1:
		v.result = "improved"
	case spread > def.bound && !allBetter:
		v.result = "unresolved"
	case v.change > def.bound:
		v.result = "regressed"
	default:
		v.result = "unchanged"
	}
	return v
}

// compareFiles prints, for every workload and end-to-end metric present
// in both files, each side's quartiles, the paired wins and the verdict
// against the metric's bound, then whether the fingerprints agree seed
// by seed. It reports false when anything regressed or a fingerprint
// differs.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	ra, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	group := func(rs []report) (map[string][]report, []string) {
		m := map[string][]report{}
		var order []string
		for _, r := range rs {
			if _, ok := m[r.Workload]; !ok {
				order = append(order, r.Workload)
			}
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m, order
	}
	ga, order := group(ra)
	gb, _ := group(rb)
	ok := true
	fmt.Fprintf(w, "%-14s %-17s %-6s %32s %32s %8s %6s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "worse by", "wins", "bound", "verdict")
	for _, name := range order {
		as, bs := ga[name], gb[name]
		if len(bs) == 0 {
			continue
		}
		for _, def := range endToEnd {
			var a, b []float64
			for _, r := range as {
				if v, ok := r.Metrics[def.name]; ok {
					a = append(a, v.Value)
				}
			}
			for _, r := range bs {
				if v, ok := r.Metrics[def.name]; ok {
					b = append(b, v.Value)
				}
			}
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(def, a, b)
			if v.result == "regressed" {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-17s %-6s %32s %32s %+7.2f%% %6s %6.2f  %s\n",
				name, def.name, def.unit,
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.a2, v.a1, v.a3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.b2, v.b1, v.b3),
				100*v.change, fmt.Sprintf("%d/%d", v.wins, v.pairs), def.bound, v.result)
		}
		fps := map[uint64]string{}
		same := true
		for _, r := range append(append([]report(nil), as...), bs...) {
			if fp, seen := fps[r.Seed]; seen && fp != r.Fingerprint {
				same = false
			}
			fps[r.Seed] = r.Fingerprint
		}
		if !same {
			ok = false
		}
		fmt.Fprintf(w, "%-14s fingerprints identical seed by seed across both sides: %v\n", name, same)
	}
	return ok, nil
}
