package loadgen

import (
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/sim"
)

// chaosConfig is testConfig plus a crash schedule tuned so peers of a
// dead node reach the retry cap well inside one MTTR: the link breaks,
// in-flight messages fail fast, and the flow resumes on the next epoch
// after the reboot.
func chaosConfig(rate float64) TrialConfig {
	tc := testConfig(rate)
	tc.RetxTimeout = 6_000
	tc.RelMaxRetries = 3
	tc.Crash = cluster.CrashPlan{
		Seed:       5,
		MTBF:       350_000,
		MTTR:       80_000,
		FirstAt:    120_000,
		MaxCrashes: 2,
	}
	return tc
}

// TestTrialChaosCrashAccounts: a trial with crashes actually firing
// still accounts for every offered message — delivered or failed, none
// lost — and the availability readout reports the outages.
func TestTrialChaosCrashAccounts(t *testing.T) {
	res, err := RunTrial(chaosConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("chaos plan never fired; retune the schedule")
	}
	if res.Delivered+res.Failed != res.Messages {
		t.Fatalf("accounting across crashes: %d delivered + %d failed != %d offered",
			res.Delivered, res.Failed, res.Messages)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered under chaos")
	}
	if res.DowntimeCycles == 0 {
		t.Fatalf("crashes fired but no downtime recorded: %+v", res.Crashes)
	}
	if res.Respawns == 0 {
		t.Fatal("no node ever respawned after a reboot")
	}
	for c := range res.Classes {
		s := &res.Classes[c]
		if s.Delivered+s.Failed != s.Offered {
			t.Fatalf("class %s accounting: %d+%d != %d", s.Class, s.Delivered, s.Failed, s.Offered)
		}
	}
	// Every completed outage shows up as a dip, and a dip that recovered
	// has a finite width covering at least the outage itself.
	for _, d := range res.Dips {
		if d.UpAt <= d.DownAt {
			t.Fatalf("dip span inverted: %+v", d)
		}
		if d.RecoverAt != 0 && d.Width < d.UpAt-d.DownAt {
			t.Fatalf("dip recovered before the reboot: %+v", d)
		}
	}
}

// TestTrialChaosBitExact: crash–restart chaos is deterministic — the
// same config fingerprints identically across runs and across cluster
// worker counts.
func TestTrialChaosBitExact(t *testing.T) {
	base, err := RunTrial(chaosConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	if base.Crashes == 0 {
		t.Fatal("chaos plan never fired; the determinism check would be vacuous")
	}
	again, err := RunTrial(chaosConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() != again.Fingerprint() {
		t.Fatalf("same chaos config, different fingerprints: %016x vs %016x",
			base.Fingerprint(), again.Fingerprint())
	}
	par := chaosConfig(200)
	par.Workers = 4
	wide, err := RunTrial(par)
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() != wide.Fingerprint() {
		t.Fatalf("chaos workers 1 vs 4 diverge: %016x vs %016x",
			base.Fingerprint(), wide.Fingerprint())
	}
}

// TestTrialChaosArmedNeverFiresEqualsNoPlan: the crash schedule draws
// from a private RNG that the simulation never reads, so a plan armed
// far past the trial's end is bit-identical to no plan at all — the
// "ample MTTR == no-crash" fingerprint property e17 leans on.
func TestTrialChaosArmedNeverFiresEqualsNoPlan(t *testing.T) {
	clean, err := RunTrial(testConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	armed := testConfig(150)
	armed.Crash = cluster.CrashPlan{Seed: 9, MTBF: 1 << 40, FirstAt: sim.Cycles(1) << 50}
	res, err := RunTrial(armed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 0 {
		t.Fatalf("far-future plan fired %d crashes", res.Crashes)
	}
	if clean.Fingerprint() != res.Fingerprint() {
		t.Fatalf("armed-but-idle plan perturbed the simulation: %016x vs %016x",
			clean.Fingerprint(), res.Fingerprint())
	}
}
