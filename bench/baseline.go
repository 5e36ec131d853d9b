package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
)

// baselineJSON is the committed performance record: the default-seed
// fingerprint pins and the first calibration's medians, with the host
// they were measured on.
//
//go:embed baseline.json
var baselineJSON []byte

type baseline struct {
	Fingerprints map[string]string             `json:"fingerprints"`
	Medians      map[string]map[string]float64 `json:"medians"`
}

func loadBaseline() (baseline, error) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return b, fmt.Errorf("baseline.json: %w", err)
	}
	return b, nil
}

// pins are the default-seed, full-size fingerprints every run at the
// default seed must reproduce. An unreadable baseline pins nothing, so
// every pin check fails.
func pins() map[string]string {
	b, err := loadBaseline()
	if err != nil {
		return nil
	}
	return b.Fingerprints
}

// runCheck proves the workloads deterministic: at a tiny size each must
// give one fingerprint at workers 1, on a rerun and at workers 2, with
// every correctness check green; at full size the default-seed
// fingerprint must equal its pin.
func runCheck(w io.Writer) bool {
	ok := true
	p := pins()
	for _, wl := range workloads {
		fps := make([]string, 0, 3)
		for _, workers := range []int{1, 1, 2} {
			t, err := wl.run(wl.seed, wl.tiny, workers, nil)
			if err != nil {
				fmt.Fprintf(w, "%s tiny workers=%d: %v\n", wl.name, workers, err)
				ok = false
				continue
			}
			ok = reportChecks(w, wl.name+" tiny", t) && ok
			fps = append(fps, t.fingerprint)
		}
		same := len(fps) == 3 && fps[0] == fps[1] && fps[1] == fps[2]
		fmt.Fprintf(w, "%-14s tiny fingerprints (workers 1, rerun, workers 2): %v same=%v\n", wl.name, fps, same)
		ok = ok && same

		t, err := wl.run(wl.seed, wl.size, workersFor(wl), nil)
		if err != nil {
			fmt.Fprintf(w, "%s full: %v\n", wl.name, err)
			ok = false
			continue
		}
		ok = reportChecks(w, wl.name+" full", t) && ok
		match := t.fingerprint == p[wl.name]
		fmt.Fprintf(w, "%-14s full fingerprint %s pinned %s match=%v\n", wl.name, t.fingerprint, p[wl.name], match)
		ok = ok && match
	}
	return ok
}

func reportChecks(w io.Writer, label string, t *trial) bool {
	ok := true
	for _, c := range t.checks {
		if !c.OK {
			fmt.Fprintf(w, "%s: check failed: %s %s\n", label, c.Name, c.Detail)
			ok = false
		}
	}
	return ok
}
