package loadgen

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/telemetry"
)

// testConfig is a small-but-real trial shape shared by the tests:
// enough messages for every class to appear, short enough to keep the
// suite fast.
func testConfig(rate float64) TrialConfig {
	return TrialConfig{
		Config: Config{
			Nodes:    3,
			Seed:     42,
			Rate:     rate,
			Messages: 150,
			Flows:    96,
		},
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	cfg := Config{Nodes: 4, Seed: 7, Rate: 250, Messages: 500, Flows: 64}
	a, b := BuildPlan(cfg), BuildPlan(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans from one config differ")
	}
	if a.Span == 0 {
		t.Fatal("zero arrival span")
	}
	total := 0
	for c := 0; c < NumClasses; c++ {
		total += a.Offered[c]
	}
	if total != 500 {
		t.Fatalf("class counts sum to %d, want 500", total)
	}
	// Per-source schedules ascend in time; per-flow sequences ascend by
	// one and stay on the flow's fixed source node.
	seq := make(map[int]int)
	for src, arr := range a.Arrivals {
		for i, ar := range arr {
			if i > 0 && ar.At < arr[i-1].At {
				t.Fatalf("node %d arrivals out of order at %d", src, i)
			}
			if a.Flows[ar.Flow].Src != src {
				t.Fatalf("flow %d scheduled on node %d but pinned to %d", ar.Flow, src, a.Flows[ar.Flow].Src)
			}
			if want := seq[ar.Flow]; ar.Seq != want {
				t.Fatalf("flow %d seq %d, want %d", ar.Flow, ar.Seq, want)
			}
			seq[ar.Flow]++
		}
	}
	// Flows never send to themselves.
	for f, fl := range a.Flows {
		if fl.Src == fl.Dst {
			t.Fatalf("flow %d is a self-loop (node %d)", f, fl.Src)
		}
	}
}

func TestPlanRateScalesGaps(t *testing.T) {
	slow := BuildPlan(Config{Nodes: 2, Seed: 9, Rate: 50, Messages: 400})
	fast := BuildPlan(Config{Nodes: 2, Seed: 9, Rate: 500, Messages: 400})
	// 10x the offered rate compresses the same seed's schedule ~10x.
	ratio := float64(slow.Span) / float64(fast.Span)
	if ratio < 5 || ratio > 20 {
		t.Fatalf("span ratio %.1f for a 10x rate change", ratio)
	}
}

func TestTrialCleanServes(t *testing.T) {
	res, err := RunTrial(testConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+res.Failed != res.Messages {
		t.Fatalf("accounting: %d delivered + %d failed != %d offered",
			res.Delivered, res.Failed, res.Messages)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failures on a clean wire", res.Failed)
	}
	if res.OrderViolations != 0 {
		t.Fatalf("%d per-flow FIFO violations", res.OrderViolations)
	}
	if res.Elapsed == 0 || res.AchievedRate == 0 || res.Goodput() == 0 {
		t.Fatalf("empty readout: %+v", res)
	}
	for c := range res.Classes {
		s := &res.Classes[c]
		if s.Delivered+s.Failed != s.Offered {
			t.Fatalf("class %s accounting: %d+%d != %d", s.Class, s.Delivered, s.Failed, s.Offered)
		}
		if s.Delivered > 0 && !(s.P50 <= s.P99 && s.P99 <= s.P999) {
			t.Fatalf("class %s percentiles unordered: %.0f/%.0f/%.0f", s.Class, s.P50, s.P99, s.P999)
		}
	}
	var samples int
	for _, series := range res.Samples {
		samples += len(series)
	}
	if samples == 0 {
		t.Fatal("no queue-depth samples recorded")
	}
}

func TestTrialBitExactAcrossRunsAndWorkers(t *testing.T) {
	base, err := RunTrial(testConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunTrial(testConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() != again.Fingerprint() {
		t.Fatalf("same config, different fingerprints: %016x vs %016x",
			base.Fingerprint(), again.Fingerprint())
	}
	par := testConfig(200)
	par.Workers = 4
	wide, err := RunTrial(par)
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() != wide.Fingerprint() {
		t.Fatalf("workers 1 vs 4 diverge: %016x vs %016x",
			base.Fingerprint(), wide.Fingerprint())
	}
}

// TestTrialLimitIsErrLimit pins what reaching the run limit means for a
// trial: an error that wraps cluster.ErrLimit, the same typed outcome
// every driver of the lockstep loop sees, and no half-drained result.
func TestTrialLimitIsErrLimit(t *testing.T) {
	tc := testConfig(150)
	tc.Limit = 10_000
	res, err := RunTrial(tc)
	if !errors.Is(err, cluster.ErrLimit) {
		t.Fatalf("RunTrial at a %d-cycle limit: err = %v, want one wrapping cluster.ErrLimit", tc.Limit, err)
	}
	if res != nil {
		t.Fatal("a trial cut off at its limit returned a result")
	}
}

// TestTrialRefusesBadConfig pins that a trial that could never serve —
// one node has no remote destination, a negative rate no arrivals — is
// refused before the cluster is built, not by a panic in BuildPlan or a
// run to the cycle limit.
func TestTrialRefusesBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*TrialConfig)
	}{
		{"one node", func(tc *TrialConfig) { tc.Nodes = 1 }},
		{"negative nodes", func(tc *TrialConfig) { tc.Nodes = -3 }},
		{"negative rate", func(tc *TrialConfig) { tc.Rate = -50 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(150)
			cfg.Limit = 10_000_000 // a run that starts fails fast, not at 2e9
			tc.edit(&cfg)
			res, err := RunTrial(cfg)
			if err == nil || errors.Is(err, cluster.ErrLimit) || res != nil {
				t.Fatalf("RunTrial = %v, %v; want a config error before any run", res, err)
			}
		})
	}
}

func TestTrialLossyWireAccounts(t *testing.T) {
	tc := testConfig(150)
	tc.Fault = interconnect.FaultPlan{
		Seed: 77, DropRate: 0.05, DupRate: 0.02, CorruptRate: 0.02, DelayRate: 0.05,
	}
	res, err := RunTrial(tc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+res.Failed != res.Messages {
		t.Fatalf("lossy accounting: %d+%d != %d", res.Delivered, res.Failed, res.Messages)
	}
	if res.Retransmits == 0 {
		t.Fatal("5% drop produced no retransmits")
	}
	if res.OrderViolations != 0 {
		t.Fatalf("%d FIFO violations under loss", res.OrderViolations)
	}
	again, err := RunTrial(tc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() != again.Fingerprint() {
		t.Fatal("lossy trial not reproducible")
	}
}

func TestTrialFaultyDeviceKeepsServing(t *testing.T) {
	tc := testConfig(150)
	tc.Inject = cluster.InjectPlan{Seed: tc.Seed, RejectRate: 0.02, FailRate: 0.02}
	res, err := RunTrial(tc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+res.Failed != res.Messages {
		t.Fatalf("faulty accounting: %d+%d != %d", res.Delivered, res.Failed, res.Messages)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered under 2% injection")
	}
	if res.Retries == 0 {
		t.Fatal("fault injection never exercised SendRetry")
	}
}

func TestSaturationStretchesElapsed(t *testing.T) {
	light, err := RunTrial(testConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := RunTrial(testConfig(5000))
	if err != nil {
		t.Fatal(err)
	}
	// Under light load the system keeps up with the schedule; far past
	// capacity the achieved rate detaches from the offered rate and the
	// queues visibly grow.
	if light.AchievedRate < 0.8*light.OfferedRate {
		t.Fatalf("light load fell behind: achieved %.1f of offered %.1f",
			light.AchievedRate, light.OfferedRate)
	}
	if heavy.AchievedRate > 0.9*heavy.OfferedRate {
		t.Fatalf("overload kept up?! achieved %.1f of offered %.1f",
			heavy.AchievedRate, heavy.OfferedRate)
	}
	if heavy.MaxQueueDepth <= light.MaxQueueDepth {
		t.Fatalf("overload queue depth %d <= light %d", heavy.MaxQueueDepth, light.MaxQueueDepth)
	}
	// Queueing is charged to sojourn: the mid-class tail degrades.
	if heavy.Classes[ClassMid].P99 <= light.Classes[ClassMid].P99 {
		t.Fatalf("overload p99 %.0f <= light p99 %.0f",
			heavy.Classes[ClassMid].P99, light.Classes[ClassMid].P99)
	}
}

func TestKnee(t *testing.T) {
	pts := []RatePoint{
		{Offered: 100, Achieved: 99},
		{Offered: 300, Achieved: 296},
		{Offered: 900, Achieved: 610},
		{Offered: 2700, Achieved: 620},
	}
	rate, ok := Knee(pts, 0.9)
	if !ok || rate != 900 {
		t.Fatalf("knee = %.0f ok=%v, want 900", rate, ok)
	}
	if _, ok := Knee(pts[:2], 0.9); ok {
		t.Fatal("knee found in an unsaturated sweep")
	}
	if _, ok := Knee(nil, 0); ok {
		t.Fatal("knee found in an empty sweep")
	}
}

// TestMetricsMirrorIsPureObserver: attaching a registry must not change
// a trial in any regime — clean serving, churn against a small NIPT
// cache, and crash–restart chaos — and the mirror must carry populated
// sojourn histograms and NIPT counters that add up (every lookup hits
// or misses) on every node.
func TestMetricsMirrorIsPureObserver(t *testing.T) {
	churn := churnConfig(150)
	churn.NIPTCapacity = 8
	for _, tc := range []struct {
		name string
		cfg  TrialConfig
	}{
		{"clean", testConfig(150)},
		{"churn", churn},
		{"chaos", chaosConfig(150)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := RunTrial(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.New()
			cfg := tc.cfg
			cfg.Metrics = reg
			mirrored, err := RunTrial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Fingerprint() != mirrored.Fingerprint() {
				t.Fatal("attaching telemetry changed the simulation")
			}
			snap := reg.Snapshot()
			found := false
			for _, h := range snap.Histograms {
				if h.Count > 0 && h.P999 > 0 && strings.HasPrefix(h.Name, "loadgen_sojourn_cycles") {
					found = true
				}
			}
			if !found {
				t.Fatalf("no populated loadgen sojourn histogram in snapshot: %+v", snap.Histograms)
			}
			for node := 0; node < cfg.Nodes; node++ {
				get := func(name string) uint64 {
					c, _ := snap.Counter(fmt.Sprintf("%s{node=%d}", name, node))
					return c.Value
				}
				if l, h, m := get("nic_nipt_lookups"), get("nipt_hits"), get("nipt_misses"); l == 0 || l != h+m {
					t.Errorf("node %d: nic_nipt_lookups %d, nipt_hits %d + nipt_misses %d", node, l, h, m)
				}
			}
		})
	}
}
