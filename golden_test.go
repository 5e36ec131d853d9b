package shrimp_test

// Golden telemetry snapshots: small serve, churn, chaos and incast runs
// render their full metrics snapshot as text, and each rendering must
// match its committed file under testdata/golden/telemetry byte for
// byte. Any change to a simulated count, a histogram, a gauge or a
// metric name shows up as a diff there; `make golden` rewrites it.

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/experiments"
	"shrimp/internal/golden"
	"shrimp/internal/interconnect"
	"shrimp/internal/loadgen"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
)

// goldenCounters is every counter name the layers register. The golden
// runs must register each of them between them, so a layer that stops
// publishing a counter fails here rather than silently thinning the
// snapshot.
var goldenCounters = []string{
	"bus_burst_bytes", "bus_bursts", "bus_busy_cycles", "bus_pio_words",
	"dma_failures", "dma_transfers",
	"kernel_context_switches", "kernel_evictions", "kernel_invals",
	"kernel_machine_checks", "kernel_page_faults", "kernel_page_ins",
	"kernel_pins", "kernel_proxy_faults", "kernel_unpins",
	"link_busy_cycles", "loadgen_arrivals",
	"nic_acks_recv", "nic_acks_sent", "nic_bytes_recv", "nic_bytes_sent",
	"nic_crc_dropped", "nic_credit_stalls", "nic_delivery_failures",
	"nic_dup_acks", "nic_dup_dropped", "nic_nipt_lookups",
	"nic_packets_recv", "nic_packets_sent", "nic_recv_drops",
	"nic_rel_reclaims", "nic_retransmits",
	"nipt_evictions", "nipt_hits", "nipt_misses", "nipt_refill_cycles",
	"udma_completions", "udma_failures", "udma_initiations", "udma_queue_full",
}

// goldenServe is a small clean open-loop serving trial: PIO, UDMA and
// multi-page sends over the reliable NIC, no NIPT misses.
func goldenServe() loadgen.TrialConfig {
	return loadgen.TrialConfig{
		Config:  loadgen.Config{Nodes: 3, Seed: 42, Rate: 150, Messages: 150, Flows: 96},
		Workers: 2,
	}
}

// goldenRuns maps each golden file's base name to the run that renders
// it into reg.
var goldenRuns = []struct {
	name string
	run  func(reg *telemetry.Registry) error
}{
	{"serve", func(reg *telemetry.Registry) error {
		tc := goldenServe()
		tc.Metrics = reg
		_, err := loadgen.RunTrial(tc)
		return err
	}},
	{"churn", func(reg *telemetry.Registry) error {
		// Short-lived flows against an 8-entry NIPT cache: misses,
		// evictions, refills and idle reliability-state reclaims.
		tc := loadgen.TrialConfig{
			Config: loadgen.Config{Nodes: 3, Seed: 11, Rate: 150, Messages: 240,
				Churn: true, ActiveFlows: 24, MsgsPerFlow: 2},
			NIPTCapacity:     8,
			NIPTRefillJitter: 32,
			IdleReclaimAge:   60_000,
			Metrics:          reg,
		}
		_, err := loadgen.RunTrial(tc)
		return err
	}},
	{"chaos", func(reg *telemetry.Registry) error {
		// Two crash–restarts with a short retransmit timeout, so peers
		// of a dead node break their links and fail messages fast.
		tc := goldenServe()
		tc.RetxTimeout = 6_000
		tc.RelMaxRetries = 3
		tc.Retry = udmalib.RetryPolicy{MaxAttempts: 3, Backoff: 2000}
		tc.Crash = cluster.CrashPlan{Seed: 5, MTBF: 350_000, MTTR: 80_000,
			FirstAt: 120_000, MaxCrashes: 2}
		tc.Metrics = reg
		_, err := loadgen.RunTrial(tc)
		return err
	}},
	{"incast-torus16", func(reg *telemetry.Registry) error {
		_, err := experiments.RunIncast(16, interconnect.KindTorus, experiments.ScaleLimitedBPC, 6, 2, reg)
		return err
	}},
}

// renderGolden runs one golden case and returns its snapshot text.
func renderGolden(t *testing.T, run func(*telemetry.Registry) error) (string, *telemetry.Snapshot) {
	t.Helper()
	reg := telemetry.New()
	if err := run(reg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var buf bytes.Buffer
	snap.WriteText(&buf)
	return buf.String(), snap
}

func TestGolden(t *testing.T) {
	seen := make(map[string]bool)
	for _, g := range goldenRuns {
		text, snap := renderGolden(t, g.run)
		for _, c := range snap.Counters {
			seen[strings.SplitN(c.Name, "{", 2)[0]] = true
		}
		golden.Check(t, "telemetry/"+g.name+".txt", text)
	}
	var missing []string
	for _, name := range goldenCounters {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	var extra []string
	for name := range seen {
		if !slices.Contains(goldenCounters, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("golden runs' counter names: missing %v, unlisted %v", missing, extra)
	}
}
