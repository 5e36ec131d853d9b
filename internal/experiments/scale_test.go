package experiments

import (
	"strings"
	"testing"

	"shrimp/internal/interconnect"
	"shrimp/internal/telemetry"
)

// TestIncastMetricsArePureObserver: the limited-fabric incast on a
// 16-node torus fingerprints the same with and without a registry, and
// the observed run really published its per-link counters.
func TestIncastMetricsArePureObserver(t *testing.T) {
	plain, err := RunIncast(16, interconnect.KindTorus, ScaleLimitedBPC, 6, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	observed, err := RunIncast(16, interconnect.KindTorus, ScaleLimitedBPC, 6, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fingerprint != observed.Fingerprint {
		t.Fatalf("attaching telemetry changed the incast:\n  off: %s\n  on:  %s", plain.Fingerprint, observed.Fingerprint)
	}
	links := 0
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "link_busy_cycles{") && c.Value > 0 {
			links++
		}
	}
	if links != observed.LinksUsed {
		t.Fatalf("%d busy link counters, want one per used link (%d)", links, observed.LinksUsed)
	}
}
