package experiments

import (
	"fmt"
	"strings"

	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/loadgen"
	"shrimp/internal/machine"
	"shrimp/internal/stats"
)

// ServeSeed is the default seed for the open-loop serving sweep;
// shrimpsim's serve scenario overrides it from the command line.
const ServeSeed = 0x5e_21_7e

// serveRates is the offered-rate sweep in messages per million cycles.
// Calibrated against the 4-node shape's measured capacity (~290
// msgs/Mcycle): the first two points stay under the knee, the last two
// sit well past it so the saturation detector has something to find.
var serveRates = []float64{75, 150, 450, 1350}

const (
	serveMessages = 400
	serveFlows    = 1024
	serveNodes    = 4
)

// serveRegime is one machine condition the rate sweep runs under.
type serveRegime struct {
	name string
	cfg  func(tc *loadgen.TrialConfig)
}

func serveRegimes(seed uint64) []serveRegime {
	return []serveRegime{
		{"clean", func(tc *loadgen.TrialConfig) {}},
		{"lossy", func(tc *loadgen.TrialConfig) {
			tc.Fault = interconnect.FaultPlan{
				Seed: seed ^ 0x10_55, DropRate: 0.05, DupRate: 0.02,
				CorruptRate: 0.02, DelayRate: 0.05,
			}
		}},
		{"faulty", func(tc *loadgen.TrialConfig) {
			tc.Inject = cluster.InjectPlan{Seed: seed, RejectRate: 0.02, FailRate: 0.02}
		}},
	}
}

func serveTrial(seed uint64, reg serveRegime, rate float64, workers int) (*loadgen.Result, error) {
	tc := loadgen.TrialConfig{
		Config: loadgen.Config{
			Nodes:    serveNodes,
			Seed:     seed,
			Rate:     rate,
			Messages: serveMessages,
			Flows:    serveFlows,
		},
		Workers: workers,
	}
	reg.cfg(&tc)
	res, err := loadgen.RunTrial(tc)
	if err != nil {
		return nil, fmt.Errorf("%s rate %.0f: %w", reg.name, rate, err)
	}
	return res, nil
}

// metricKey flattens a class name ("small-pio") into metric-key form.
func metricKey(parts ...string) string {
	return strings.ReplaceAll(strings.Join(parts, "_"), "-", "_")
}

// RunServe is E15: the open-loop serving sweep. Every experiment so far
// is closed-loop — the workload waits for the machine. Here
// internal/loadgen offers a seeded Poisson arrival schedule at rates
// from well under to well past the measured capacity, under three
// regimes (clean wire, 5%-drop lossy wire with reliable delivery,
// 2%-fault device injection), and reads back serving SLOs: offered vs
// achieved rate, goodput, and per-class p50/p99/p999 sojourn latency
// where queueing behind a saturated NIC is charged to the message.
func RunServe() (*Result, error) {
	const seed = ServeSeed
	res := &Result{
		ID:    "e15",
		Title: "Extension: open-loop serving — offered-rate sweep and SLO readout",
		Paper: "the paper benchmarks closed-loop; serving sustained traffic is the north-star extension",
	}
	costs := machine.SHRIMP1996()
	us := func(cycles float64) float64 { return costs.Micros(1) * cycles }

	regimes := serveRegimes(seed)
	// regime-major, rate-minor flat fan-out: every trial builds its own
	// cluster, so the sweep parallelizes freely and results return in
	// input order, keeping tables byte-identical at any worker count.
	outs, err := fanOut(len(regimes)*len(serveRates), func(i int) (*loadgen.Result, error) {
		return serveTrial(seed, regimes[i/len(serveRates)], serveRates[i%len(serveRates)], 1)
	})
	if err != nil {
		return nil, err
	}
	byRegime := make(map[string][]*loadgen.Result)
	for i, r := range outs {
		name := regimes[i/len(serveRates)].name
		byRegime[name] = append(byRegime[name], r)
	}

	accounted, ordered, tails := true, true, true
	achievedSeries := map[string]*stats.Series{}
	for _, reg := range regimes {
		tbl := stats.NewTable(
			fmt.Sprintf("Open-loop serving, %s regime (%d msgs, %d flows, %d nodes; latency = sojourn µs)",
				reg.name, serveMessages, serveFlows, serveNodes),
			"rate msg/Mc", "achieved", "goodput B/Mc", "failed", "max depth", "rtx",
			"small p50/p99/p999", "mid p50/p99/p999", "large p50/p99/p999")
		ser := &stats.Series{Name: "achieved vs offered rate (" + reg.name + ")",
			XLabel: "offered msgs/Mcycle", YLabel: "achieved msgs/Mcycle"}
		achievedSeries[reg.name] = ser
		for _, r := range byRegime[reg.name] {
			if r.Delivered+r.Failed != r.Messages {
				accounted = false
			}
			if r.OrderViolations != 0 {
				ordered = false
			}
			row := []string{
				fmt.Sprintf("%.0f", r.OfferedRate),
				fmt.Sprintf("%.0f", r.AchievedRate),
				fmt.Sprintf("%.0f", r.Goodput()),
				fmt.Sprintf("%d", r.Failed),
				fmt.Sprintf("%d", r.MaxQueueDepth),
				fmt.Sprintf("%d", r.Retransmits),
			}
			for c := range r.Classes {
				s := &r.Classes[c]
				if s.Delivered > 0 && !(s.P50 <= s.P99 && s.P99 <= s.P999) {
					tails = false
				}
				row = append(row, fmt.Sprintf("%.0f/%.0f/%.0f", us(s.P50), us(s.P99), us(s.P999)))
			}
			tbl.AddRow(row...)
			ser.Add(r.OfferedRate, r.AchievedRate)
		}
		res.Tables = append(res.Tables, tbl)
		res.Series = append(res.Series, ser)
	}

	res.check("every message delivered or failed typed, in every regime and at every rate", accounted, "")
	res.check("per-flow FIFO order held everywhere (0 violations)", ordered, "")
	res.check("sojourn percentiles ordered p50 <= p99 <= p999 for every served class", tails, "")

	for _, reg := range regimes {
		trials := byRegime[reg.name]
		low, top := trials[0], trials[len(trials)-1]
		res.check(reg.name+": system keeps up below the knee",
			low.AchievedRate >= 0.9*low.OfferedRate,
			"achieved %.1f of offered %.1f msgs/Mcycle", low.AchievedRate, low.OfferedRate)

		var pts []loadgen.RatePoint
		for _, r := range trials {
			pts = append(pts, loadgen.RatePoint{Offered: r.OfferedRate, Achieved: r.AchievedRate})
		}
		knee, found := loadgen.Knee(pts, 0.9)
		res.check(reg.name+": the sweep reaches the saturation knee", found,
			"first backlogged offered rate %.0f msgs/Mcycle", knee)
		res.metric(metricKey(reg.name, "knee_rate"), knee)
		res.metric(metricKey(reg.name, "goodput_sat_bpmc"), top.Goodput())
		res.metric(metricKey(reg.name, "max_queue_depth"), float64(top.MaxQueueDepth))
		served := true
		var p50s []string
		for c := range low.Classes {
			s := &low.Classes[c]
			served = served && s.P50 > 0
			p50s = append(p50s, fmt.Sprintf("%s %.1f", s.Class, us(s.P50)))
		}
		res.check(reg.name+": every class is served below the knee (p50 > 0)", served,
			"p50 µs: %s", strings.Join(p50s, ", "))
		for c := range low.Classes {
			s := &low.Classes[c]
			res.metric(metricKey(reg.name, s.Class, "p50_us"), us(s.P50))
			res.metric(metricKey(reg.name, s.Class, "p99_us"), us(s.P99))
			res.metric(metricKey(reg.name, s.Class, "p999_us"), us(s.P999))
		}
	}

	lossyTop := byRegime["lossy"][len(serveRates)-1]
	res.check("lossy regime actually lost and recovered (retransmits > 0)",
		lossyTop.Retransmits > 0, "%d retransmits", lossyTop.Retransmits)
	faultyLow := byRegime["faulty"][0]
	res.check("faulty regime exercised SendRetry and kept serving",
		faultyLow.Retries > 0 && faultyLow.Delivered > 0,
		"%d retries, %d delivered", faultyLow.Retries, faultyLow.Delivered)
	// Past the knee even a clean wire retransmits a little — receiver
	// backlog inflates the ACK RTT past the fixed base timeout — so the
	// no-recovery claim is made where it is true: below the knee.
	var cleanRtx uint64
	for _, r := range byRegime["clean"][:2] {
		cleanRtx += r.Retransmits
	}
	res.check("clean wire needs no recovery below the knee (0 retransmits)",
		cleanRtx == 0, "%d retransmits", cleanRtx)

	// Determinism: the top clean trial re-run bit-exactly, serially and
	// on four workers.
	if err := res.checkReproduces("trial", byRegime["clean"][len(serveRates)-1], func(workers int) (*loadgen.Result, error) {
		return serveTrial(seed, regimes[0], serveRates[len(serveRates)-1], workers)
	}); err != nil {
		return nil, err
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("seed %#x; arrival process: seeded exponential inter-arrivals, precomputed on simulated time", seed),
		"sojourn = scheduled arrival to send completion, so queueing while the NIC is saturated is charged to the message",
		"small class rides the PIO FIFO window (fire-and-forget); mid/large ride UDMA deliberate updates with SendRetry",
		"lossy regime: 5% drop / 2% dup / 2% corrupt / 5% delay with the reliable-delivery sublayer recovering underneath")
	return res, nil
}
