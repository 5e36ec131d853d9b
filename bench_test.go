package shrimp_test

// One benchmark per reproduced table/figure of the paper (E1–E10 of the
// E1–E18 index in DESIGN.md), plus E11's transfer-strategy comparison.
// Each benchmark runs the experiment's full driver per iteration — the
// same machines `shrimpsim -exp eN` builds — and fails if any of its
// shape checks does not hold; Go's ns/op is the host cost of one
// regeneration.

import (
	"testing"

	"shrimp/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			for _, c := range res.Checks {
				if !c.Pass {
					b.Fatalf("%s: %s — %s", id, c.Name, c.Detail)
				}
			}
		}
	}
}

// BenchmarkFig8Bandwidth regenerates Figure 8: deliberate-update
// bandwidth per message size on the two-node SHRIMP pair.
func BenchmarkFig8Bandwidth(b *testing.B) { benchExperiment(b, "e1") }

// BenchmarkInitiationCost regenerates the Section 8 scalar: the
// two-instruction initiation sequence plus alignment check (≈2.8 µs).
func BenchmarkInitiationCost(b *testing.B) { benchExperiment(b, "e2") }

// BenchmarkTraditionalDMAOverhead regenerates the Section 1 HIPPI
// table: kernel-initiated DMA on a 100 MB/s channel.
func BenchmarkTraditionalDMAOverhead(b *testing.B) { benchExperiment(b, "e3") }

// BenchmarkInitiationComparison regenerates the Sections 2–3 breakdown
// table: kernel DMA steps vs the two UDMA references.
func BenchmarkInitiationComparison(b *testing.B) { benchExperiment(b, "e4") }

// BenchmarkPIOvsUDMA regenerates the Section 9 comparison: the
// memory-mapped FIFO vs UDMA per message size.
func BenchmarkPIOvsUDMA(b *testing.B) { benchExperiment(b, "e5") }

// BenchmarkMultiPageQueueing regenerates the Section 7 table: serial vs
// queued multi-page sends.
func BenchmarkMultiPageQueueing(b *testing.B) { benchExperiment(b, "e6") }

// BenchmarkContextSwitchInval regenerates the Section 6 / I1 table.
func BenchmarkContextSwitchInval(b *testing.B) { benchExperiment(b, "e7") }

// BenchmarkPinningVsRemapGuard regenerates the Section 6 / I4 table.
func BenchmarkPinningVsRemapGuard(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkNIPTTranslation regenerates the Section 8 NIPT table.
func BenchmarkNIPTTranslation(b *testing.B) { benchExperiment(b, "e9") }

// BenchmarkFourNodePrototype regenerates the Section 8 prototype table.
func BenchmarkFourNodePrototype(b *testing.B) { benchExperiment(b, "e10") }

// BenchmarkAutoVsDeliberate regenerates the extension table comparing
// SHRIMP's two transfer strategies (e11).
func BenchmarkAutoVsDeliberate(b *testing.B) { benchExperiment(b, "e11") }
