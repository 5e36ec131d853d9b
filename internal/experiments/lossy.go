package experiments

import (
	"errors"
	"fmt"
	"sort"

	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// LossySeed is the default seed for the lossy-wire sweep; shrimpsim's
// lossy scenario overrides it from the command line.
const LossySeed = 0x10_55_1e

const (
	lossyMsgBytes = 1024
	lossyMsgCount = 128
)

// lossTrial is one point of the loss-rate sweep: messages pushed
// through SendRetry over a wire dropping (and corrupting, duplicating,
// reordering) packets at the given rate, with the NIC's reliability
// sublayer recovering underneath.
type lossTrial struct {
	Rate      float64
	Messages  int
	Delivered int // SendRetry returned nil
	Failed    int // typed failure (RetryExhausted / DeliveryError)

	Retransmits  uint64
	RetransBytes uint64
	WireBytes    uint64
	RecvBytes    uint64
	CreditStalls uint64
	DeliveryFail uint64
	WireDrops    uint64
	WireCorrupts uint64

	Elapsed  sim.Cycles
	P50, P99 sim.Cycles // per-message SendRetry completion latency

	Costs *sim.CostModel
}

func (t *lossTrial) goodput() float64 {
	return mbps(t.Costs, t.Delivered*lossyMsgBytes, t.Elapsed)
}

// wireOverhead is the fraction of wire payload bytes that were
// retransmissions — what the loss rate costs in link capacity.
func (t *lossTrial) wireOverhead() float64 {
	if t.WireBytes == 0 {
		return 0
	}
	return float64(t.RetransBytes) / float64(t.WireBytes)
}

// runLossTrial streams lossyMsgCount one-page messages from node 0 to
// node 1 of a two-node cluster whose backplane drops packets at rate
// (plus a fixed 2% corruption, 2% duplication and 5% late-delivery mix
// when lossy at all), and measures delivery outcome and per-message
// completion latency at the sender.
func runLossTrial(rate float64, seed uint64) (*lossTrial, error) {
	cfg := cluster.Config{
		Nodes:   2,
		Machine: machine.Config{RAMFrames: 96},
		NIC: nic.Config{
			NIPTPages: 16,
			// A deliberately small protocol window so the sweep shows
			// backpressure: with a drop in flight the window fills, the
			// pending queue hits its bound and CheckTransfer bounces —
			// loss then surfaces in sender-side latency instead of being
			// fully hidden behind pipelining.
			Reliability: nic.ReliabilityConfig{Enabled: true, Window: 2, MaxPending: 4},
		},
		// The lockstep window bounds cross-node causality error; it must
		// sit well under the retransmit timeout (4096 cycles) or ACKs
		// appear to arrive late and every packet retransmits spuriously.
		Window: 250,
	}
	if rate > 0 {
		cfg.Fault = interconnect.FaultPlan{
			Seed:        seed,
			DropRate:    rate,
			CorruptRate: 0.02,
			DupRate:     0.02,
			DelayRate:   0.05,
		}
	}
	c := cluster.New(cfg)
	defer c.Shutdown()
	costs := c.Nodes[0].Costs

	t := &lossTrial{Rate: rate, Messages: lossyMsgCount, Costs: costs}
	if err := udmalib.MapSendWindow(c.NICs[0], 0, 1, []uint32{48}); err != nil {
		return nil, err
	}
	var lats []sim.Cycles
	var procErr error
	s := workload.Sender{Dev: c.NICs[0], Size: lossyMsgBytes, Seed: 5, Messages: lossyMsgCount,
		// Generous attempt budget: at 20% loss the credit window stalls
		// often and each stall surfaces as a retryable queue-full.
		Retry: &udmalib.RetryPolicy{MaxAttempts: 12, Backoff: 512},
		Done: func(lat sim.Cycles, err error) error {
			switch {
			case err == nil:
				t.Delivered++
				lats = append(lats, lat)
			case errors.As(err, new(*udmalib.RetryExhaustedError)):
				t.Failed++
			default:
				return err
			}
			return nil
		},
	}
	c.Nodes[0].Kernel.Spawn("sender", func(p *kernel.Proc) {
		t.Elapsed, _, procErr = s.Run(p)
	})
	if err := c.Run(5_000_000_000); err != nil {
		return nil, err
	}
	if procErr != nil {
		return nil, procErr
	}
	// c.Run drained the hardware: retransmit timers have either
	// delivered or given up, so the counters below are final.
	s0, s1 := c.NICs[0].Stats(), c.NICs[1].Stats()
	t.Retransmits, t.RetransBytes = s0.Retransmits, s0.RetransBytes
	t.CreditStalls, t.DeliveryFail = s0.CreditStalls, s0.DeliveryFailures
	t.RecvBytes = s1.BytesReceived
	_, t.WireBytes, _, _ = c.Backplane.Stats()
	fs := c.Backplane.FaultStats()
	t.WireDrops, t.WireCorrupts = fs.Drops+fs.FlapDrops, fs.Corrupts
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		t.P50 = lats[len(lats)/2]
		t.P99 = lats[min(len(lats)-1, len(lats)*99/100)]
	}
	return t, nil
}

// lossyFingerprint condenses a trial into the tuple two same-seed runs
// must reproduce exactly.
func lossyFingerprint(t *lossTrial) string {
	return fmt.Sprintf("d=%d f=%d rtx=%d/%d wire=%d recv=%d stall=%d el=%d p50=%d p99=%d",
		t.Delivered, t.Failed, t.Retransmits, t.RetransBytes, t.WireBytes,
		t.RecvBytes, t.CreditStalls, t.Elapsed, t.P50, t.P99)
}

// RunLossyWire is E13: goodput and completion latency over a lossy
// interconnect. The paper assumes the SHRIMP backplane delivers every
// packet intact and in order (a safe bet for a machine-room mesh); this
// experiment breaks that assumption — seeded drops, corruption,
// duplication and reordering — and measures what the NIC's reliable
// delivery protocol (seq/ACK/retransmit, CRC, credit backpressure)
// preserves: every message is delivered byte-exact or fails with a
// typed error, goodput degrades gracefully with loss, and tail latency
// absorbs the retransmission delays.
func RunLossyWire() (*Result, error) {
	return RunLossyWireSeeded(LossySeed)
}

// RunLossyWireSeeded is RunLossyWire under a caller-chosen seed.
func RunLossyWireSeeded(seed uint64) (*Result, error) {
	res := &Result{
		ID:    "e13",
		Title: "Lossy wire: goodput and latency under the reliable delivery protocol",
		Paper: "the paper assumes a reliable, in-order interconnect; this extension drops that assumption",
	}

	rates := []float64{0, 0.02, 0.05, 0.10, 0.20}
	tbl := stats.NewTable("Reliable delivery over a lossy wire (128 × 1 KB messages, 2% corruption)",
		"drop rate", "delivered", "retransmits", "wire overhead", "credit stalls",
		"goodput MB/s", "p50 µs", "p99 µs")
	// Each rate's trial is an independent two-node cluster, so the sweep
	// fans out across workers; results come back in rate order, keeping
	// the table byte-identical at any parallelism.
	trials, err := fanOut(len(rates), func(i int) (*lossTrial, error) {
		t, err := runLossTrial(rates[i], seed)
		if err != nil {
			return nil, fmt.Errorf("rate %.2f: %w", rates[i], err)
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range trials {
		tbl.AddRow(fmt.Sprintf("%.2f", rates[i]),
			fmt.Sprintf("%d/%d", t.Delivered, t.Messages),
			fmt.Sprintf("%d", t.Retransmits),
			fmt.Sprintf("%.1f%%", 100*t.wireOverhead()),
			fmt.Sprintf("%d", t.CreditStalls),
			fmt.Sprintf("%.1f", t.goodput()),
			fmt.Sprintf("%.1f", t.Costs.Micros(t.P50)),
			fmt.Sprintf("%.1f", t.Costs.Micros(t.P99)))
	}
	res.Tables = append(res.Tables, tbl)

	good := &stats.Series{Name: "goodput vs drop rate", XLabel: "packet drop probability", YLabel: "MB/s"}
	p99s := &stats.Series{Name: "p99 completion latency vs drop rate", XLabel: "packet drop probability", YLabel: "µs"}
	for _, t := range trials {
		good.Add(t.Rate, t.goodput())
		p99s.Add(t.Rate, t.Costs.Micros(t.P99))
	}
	res.Series = append(res.Series, good, p99s)

	clean, worst := trials[0], trials[len(trials)-1]
	res.check("clean wire needs no recovery",
		clean.Retransmits == 0 && clean.Delivered == clean.Messages && clean.WireDrops == 0,
		"rtx=%d delivered=%d/%d", clean.Retransmits, clean.Delivered, clean.Messages)
	var lostAndRecovered, accounted = false, true
	for _, t := range trials[1:] {
		if t.WireDrops > 0 && t.Retransmits > 0 {
			lostAndRecovered = true
		}
		if t.Delivered+t.Failed != t.Messages {
			accounted = false
		}
		if t.Failed == 0 && t.DeliveryFail == 0 && t.RecvBytes != uint64(t.Messages*lossyMsgBytes) {
			accounted = false
		}
	}
	res.check("the wire actually dropped packets and the NIC retransmitted", lostAndRecovered, "")
	res.check("every message delivered byte-for-byte or failed typed (no silent loss)", accounted,
		"worst rate: %d delivered + %d failed of %d, %d bytes landed",
		worst.Delivered, worst.Failed, worst.Messages, worst.RecvBytes)
	res.check("goodput degrades with loss but survives 20% drop",
		worst.goodput() < clean.goodput() && worst.goodput() > 0,
		"%.1f MB/s at %.0f%% drop vs %.1f MB/s clean",
		worst.goodput(), 100*worst.Rate, clean.goodput())
	res.check("tail latency absorbs the retransmission delays",
		worst.P99 > clean.P99,
		"p99 %.1f µs at %.0f%% drop vs %.1f µs clean",
		worst.Costs.Micros(worst.P99), 100*worst.Rate, clean.Costs.Micros(clean.P99))

	again, err := runLossTrial(worst.Rate, seed)
	if err != nil {
		return nil, err
	}
	fp1, fp2 := lossyFingerprint(worst), lossyFingerprint(again)
	res.check("same seed reproduces the run exactly", fp1 == fp2, "%s vs %s", fp1, fp2)

	res.metric("clean_goodput_mbps", clean.goodput())
	res.metric("worst_rate_goodput_mbps", worst.goodput())
	res.metric("clean_p50_us", clean.Costs.Micros(clean.P50))
	res.metric("clean_p99_us", clean.Costs.Micros(clean.P99))
	res.metric("worst_rate_p50_us", worst.Costs.Micros(worst.P50))
	res.metric("worst_rate_p99_us", worst.Costs.Micros(worst.P99))
	res.metric("worst_rate_retransmits", float64(worst.Retransmits))
	res.metric("worst_rate_wire_overhead", worst.wireOverhead())
	res.Notes = append(res.Notes,
		fmt.Sprintf("seed %#x; reliability: window 2, max pending 4, retransmit timeout 4096 cycles doubling, 8 retries", seed),
		"latency is the sender-side SendRetry completion time, so credit-window stalls (backpressure from unacknowledged packets) show up in the tail")
	return res, nil
}
