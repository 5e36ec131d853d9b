package loadgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// fingerprintFmt is the fmt-formatted digest Fingerprint must reproduce
// byte for byte: the bench fingerprint pins and every recorded trial
// fingerprint were taken with it.
func fingerprintFmt(r *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "span=%d el=%d msgs=%d del=%d fail=%d bytes=%d ord=%d depth=%d retry=%d",
		r.Span, r.Elapsed, r.Messages, r.Delivered, r.Failed,
		r.DeliveredBytes, r.OrderViolations, r.MaxQueueDepth, r.Retries)
	fmt.Fprintf(h, " stall=%d rtx=%d dfail=%d", r.CreditStalls, r.Retransmits, r.DeliveryFailures)
	fmt.Fprintf(h, " nipt=%d/%d/%d/%d/%d rec=%d res=%d deaths=%d",
		r.NIPTLookups, r.NIPTHits, r.NIPTMisses, r.NIPTEvictions, r.NIPTRefillCycles,
		r.Reclaims, r.Resurrections, r.FlowDeaths)
	fmt.Fprintf(h, " crash=%d dt=%d lag=%d resp=%d ab=%d cd=%d",
		r.Crashes, r.DowntimeCycles, r.RecoveryLagCycles, r.Respawns,
		r.CrashAbandonedBytes, r.CrashDroppedBytes)
	for c := range r.Classes {
		s := &r.Classes[c]
		fmt.Fprintf(h, " c%d=%d/%d/%d/%d max=%d", c, s.Offered, s.Delivered, s.Failed, s.Bytes, s.MaxSojourn)
	}
	for node, series := range r.Samples {
		fmt.Fprintf(h, " n%d:", node)
		for _, sm := range series {
			fmt.Fprintf(h, "(%d,%d,%d,%d,%d)", sm.At, sm.Depth, sm.CreditStalls, sm.Retransmits, sm.Done)
		}
	}
	return h.Sum64()
}

// randomize sets every int and unsigned field reachable through v's
// structs and arrays to a random value over the type's whole range, so
// negative ints and uint64s past MaxInt64 both occur.
func randomize(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(int64(rng.Uint64()))
	case reflect.Uint64:
		v.SetUint(rng.Uint64())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				randomize(rng, v.Field(i))
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			randomize(rng, v.Index(i))
		}
	}
}

// TestFingerprintMatchesFmtDigest pins Fingerprint to the fmt digest on
// results with random fields and sample series that are absent, empty,
// short and long (long enough to cross the buffer's flush point many
// times).
func TestFingerprintMatchesFmtDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 64; trial++ {
		var r Result
		randomize(rng, reflect.ValueOf(&r).Elem())
		lens := [][]int{nil, {0}, {1}, {0, 3, 1}, {5000, 0, 2}}[trial%5]
		for _, n := range lens {
			series := make([]Sample, n)
			for i := range series {
				randomize(rng, reflect.ValueOf(&series[i]).Elem())
			}
			r.Samples = append(r.Samples, series)
		}
		if trial == 0 {
			r = Result{} // the zero result: every field 0, no series
		}
		if got, want := r.Fingerprint(), fingerprintFmt(&r); got != want {
			t.Fatalf("trial %d (series lengths %v): Fingerprint %016x, fmt digest %016x", trial, lens, got, want)
		}
	}
}
