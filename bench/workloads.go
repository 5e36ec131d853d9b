package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/experiments"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/loadgen"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
)

// workload is one canonical benchmark input: a simulated machine and a
// traffic shape with every knob fixed except the seed. size is the
// canonical trial size in the workload's own unit (sends, messages per
// sender, or offered messages); one is the size of a set-up run that
// delivers one message per sender; tiny is the size the determinism
// check and the tests use, big enough to exercise every layer of the
// workload and small enough for the race detector.
type workload struct {
	name    string
	seed    uint64
	size    int
	one     int
	tiny    int
	workers int
	run     func(seed uint64, size, workers int, reg *telemetry.Registry) (*trial, error)
}

// Trial sizes are calibrated so one trial takes about a second of host
// time on a 2-CPU host: a run then measures several trials and reports
// medians, and the simulated readout of every trial of a run must be
// identical (same seed, same inputs).
var workloads = []workload{
	{name: "pair-4k", seed: 1, size: 90_000, one: 1, tiny: 200, workers: 1, run: runPair},
	{name: "serve-4n", seed: experiments.ServeSeed, size: 40_000, one: 4, tiny: 400, workers: 1, run: runServe},
	{name: "churn-4n", seed: experiments.ChurnSeed, size: 25_000, one: 4, tiny: 400, workers: 1, run: runChurn},
	{name: "incast-mesh64", seed: 1, size: 200, one: 1, tiny: 3, workers: 2, run: runIncast},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// trial is what one run of a workload produced in simulated terms. Every
// field is a pure function of (workload, seed, size): the host never
// leaks into it.
type trial struct {
	attempted, failed int
	bytes             uint64  // payload delivered
	simSeconds        float64 // simulated elapsed time
	p50, p999         float64 // simulated per-message latency, µs
	latSamples        int
	fingerprint       string
	// counts holds the sim.* per-layer counts; filled only when the
	// trial ran with a telemetry registry.
	counts map[string]float64
	checks []check
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (t *trial) check(name string, ok bool, format string, args ...any) {
	t.checks = append(t.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

var costs = machine.SHRIMP1996()

// runLimit bounds a cluster run far beyond any canonical trial; reaching
// it shows up as senders that did not finish.
const runLimit sim.Cycles = 1 << 50

const (
	pairMsg     = 4096
	pairWindow  = 16 // receive-window pages (Fig. 8's send window)
	pairRecvPFN = 32 // first receive frame on node 1
)

// runPair is the Fig. 8 point at 4 KB: one sender on node 0 issues
// back-to-back deliberate-update Sends into a 16-page window on node 1.
// The seed draws the source pages' contents and which window page each
// send targets; the receiver's frames are checked against the sources.
func runPair(seed uint64, sends, workers int, reg *telemetry.Registry) (*trial, error) {
	c := cluster.New(cluster.Config{
		Nodes:   2,
		Workers: workers,
		Machine: machine.Config{RAMFrames: 128},
		NIC:     nic.Config{NIPTPages: 64},
		Metrics: reg,
	})
	defer c.Shutdown()
	pfns := make([]uint32, pairWindow)
	for i := range pfns {
		pfns[i] = uint32(pairRecvPFN + i)
	}
	if err := udmalib.MapSendWindow(c.NICs[0], 0, 1, pfns); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	src := make([]byte, pairWindow*pairMsg)
	for i := range src {
		src[i] = byte(rng.Uint64())
	}
	pages := make([]int, sends)
	var used [pairWindow]bool
	for i := range pages {
		pages[i] = rng.Intn(pairWindow)
		used[pages[i]] = true
	}

	lat := make([]uint64, 0, sends) // written only by node 0's sender
	var sendErr error
	c.Nodes[0].Kernel.Spawn("sender", func(p *kernel.Proc) {
		d, err := udmalib.Open(p, c.NICs[0], true)
		if err != nil {
			sendErr = err
			return
		}
		va, err := p.Alloc(len(src))
		if err != nil {
			sendErr = err
			return
		}
		if err := p.WriteBuf(va, src); err != nil {
			sendErr = err
			return
		}
		for _, pg := range pages {
			off := uint32(pg * pairMsg)
			start := p.Now()
			if err := d.Send(va+addr.VAddr(off), udmalib.WindowOff(uint32(pg), 0), pairMsg); err != nil {
				sendErr = err
				return
			}
			lat = append(lat, uint64(p.Now()-start))
		}
	})
	if err := c.Run(runLimit); err != nil {
		return nil, err
	}
	if sendErr != nil {
		return nil, fmt.Errorf("sender: %w", sendErr)
	}

	t := &trial{attempted: sends, failed: sends - len(lat)}
	want := uint64(sends * pairMsg)
	t.fabricReadout(c, want, lat)
	intact := true
	for pg := 0; pg < pairWindow; pg++ {
		if !used[pg] {
			continue
		}
		got, err := c.Nodes[1].RAM.Frame(uint32(pairRecvPFN + pg))
		if err != nil || !bytes.Equal(got, src[pg*pairMsg:(pg+1)*pairMsg]) {
			intact = false
		}
	}
	t.check("receive window holds the sent pages", intact, "")
	if reg != nil {
		c.PublishRollup()
		t.counts = simCounts(reg)
		t.counts["sim.cluster.barrier_rounds"] = float64(c.Rounds())
	}
	return t, nil
}

const (
	incastNodes  = 64
	incastWidth  = 8
	incastBPC    = 0.1 // bytes/cycle per link: e18's limited fabric
	incastMsg    = 4096
	incastPFN    = 48     // the victim's receive frame
	incastJitter = 50_000 // seeded sender start spread, cycles
)

// runIncast is e18's limited-fabric incast: on an 8×8 mesh with
// 0.1 B/cyc links, 63 senders each push size 4 KB messages into node 0.
// The seed draws each sender's start delay and payload.
func runIncast(seed uint64, perSender, workers int, reg *telemetry.Registry) (*trial, error) {
	c := cluster.New(cluster.Config{
		Nodes: incastNodes,
		Topology: interconnect.Topology{Kind: interconnect.KindMesh, Nodes: incastNodes,
			Width: incastWidth, LinkBytesPerCyc: incastBPC},
		Workers: workers,
		Window:  20_000,
		Machine: machine.Config{RAMFrames: 96, Kernel: kernel.Config{Quantum: 2000}},
		NIC:     nic.Config{NIPTPages: incastNodes},
		Metrics: reg,
	})
	defer c.Shutdown()

	rng := sim.NewRNG(seed)
	lat := make([][]uint64, incastNodes) // lat[s] written only by node s
	errs := make([]error, incastNodes)
	payloads := make([][]byte, incastNodes)
	for s := 1; s < incastNodes; s++ {
		if err := udmalib.MapSendWindow(c.NICs[s], 0, 0, []uint32{incastPFN}); err != nil {
			return nil, err
		}
		delay := sim.Cycles(rng.Intn(incastJitter))
		payloads[s] = make([]byte, incastMsg)
		for i := range payloads[s] {
			payloads[s][i] = byte(rng.Uint64())
		}
		lat[s] = make([]uint64, 0, perSender)
		c.Nodes[s].Kernel.Spawn(fmt.Sprintf("sender%d", s), func(p *kernel.Proc) {
			if delay > 0 {
				p.Sleep(delay)
			}
			d, err := udmalib.Open(p, c.NICs[s], true)
			if err != nil {
				errs[s] = err
				return
			}
			va, err := p.Alloc(incastMsg)
			if err != nil {
				errs[s] = err
				return
			}
			if err := p.WriteBuf(va, payloads[s]); err != nil {
				errs[s] = err
				return
			}
			for m := 0; m < perSender; m++ {
				start := p.Now()
				if err := d.Send(va, 0, incastMsg); err != nil {
					errs[s] = err
					return
				}
				lat[s] = append(lat[s], uint64(p.Now()-start))
			}
		})
	}
	if err := c.Run(runLimit); err != nil {
		return nil, err
	}
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sender %d: %w", s, err)
		}
	}

	sent := (incastNodes - 1) * perSender
	var all []uint64
	for _, l := range lat {
		all = append(all, l...)
	}
	t := &trial{attempted: sent, failed: sent - len(all)}
	t.fabricReadout(c, uint64(sent*incastMsg), all)
	got, err := c.Nodes[0].RAM.Frame(incastPFN)
	intact := false
	for _, p := range payloads {
		if err == nil && p != nil && bytes.Equal(got, p) {
			intact = true
		}
	}
	t.check("victim frame holds one whole sender payload", intact, "")
	if reg != nil {
		c.PublishRollup()
		t.counts = simCounts(reg)
		t.counts["sim.cluster.barrier_rounds"] = float64(c.Rounds())
	}
	return t, nil
}

// fabricReadout fills the simulated readout of a cluster-driven trial:
// byte-count checks against want, goodput over the elapsed cluster time,
// latency percentiles, and an e18-style fingerprint over clocks, NIC
// stats, link ledgers and the latency samples.
func (t *trial) fabricReadout(c *cluster.Cluster, want uint64, lat []uint64) {
	_, wire, _, _ := c.Backplane.Stats()
	var recv uint64
	for _, n := range c.NICs {
		recv += n.Stats().BytesReceived
	}
	t.check("wire bytes equal bytes sent", wire == want, "wire %d, sent %d", wire, want)
	t.check("receiver bytes equal bytes sent", recv == want, "received %d, sent %d", recv, want)
	t.check("every send completed", t.failed == 0, "%d of %d", t.attempted-t.failed, t.attempted)
	t.bytes = recv
	t.simSeconds = costs.Seconds(c.MaxNow())

	sorted := append([]uint64(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	t.latSamples = len(sorted)
	t.p50 = costs.Micros(sim.Cycles(rank(sorted, 0.50)))
	t.p999 = costs.Micros(sim.Cycles(rank(sorted, 0.999)))

	h := fnv.New64a()
	for i, n := range c.Nodes {
		fmt.Fprintf(h, "n%d clock=%d nic=%+v|", i, n.Clock.Now(), c.NICs[i].Stats())
	}
	for _, l := range c.Backplane.LinkStats() {
		fmt.Fprintf(h, "L%d>%d:%d:%d:%d:%d|", l.From, l.To, l.BusyCycles, l.WaitCycles, l.Packets, l.PeakQueue)
	}
	var buf [8]byte
	for _, v := range lat {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	t.fingerprint = fmt.Sprintf("%016x", h.Sum64())
}

// rank is the nearest-rank q-quantile of an ascending slice (0 if empty).
func rank(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// runServe is e15's clean shape at ~70% of its 429 msgs/Mcycle knee.
func runServe(seed uint64, messages, workers int, reg *telemetry.Registry) (*trial, error) {
	return runLoadgen(loadgen.TrialConfig{
		Config: loadgen.Config{Nodes: 4, Seed: seed, Rate: 300, Messages: messages, Flows: 1024},
	}, workers, reg)
}

// runChurn is e16's connection-churn shape at NIPT capacity 24.
func runChurn(seed uint64, messages, workers int, reg *telemetry.Registry) (*trial, error) {
	return runLoadgen(loadgen.TrialConfig{
		Config: loadgen.Config{Nodes: 4, Seed: seed, Rate: 220, Messages: messages,
			Churn: true, ActiveFlows: 48, MsgsPerFlow: 2},
		NIPTCapacity:     24,
		NIPTRefillJitter: 64,
		IdleReclaimAge:   150_000,
	}, workers, reg)
}

func runLoadgen(tc loadgen.TrialConfig, workers int, reg *telemetry.Registry) (*trial, error) {
	tc.Workers = workers
	tc.Metrics = reg
	// Poisson arrivals average 1e6/Rate cycles apart; four times the
	// offered span is far past any drain at these stable rates.
	tc.Limit = 64_000 + sim.Cycles(4e6/tc.Rate*float64(tc.Messages)) + 100_000_000
	res, err := loadgen.RunTrial(tc)
	if err != nil {
		return nil, err
	}
	mid := &res.Classes[loadgen.ClassMid]
	t := &trial{
		attempted:   res.Messages,
		failed:      res.Failed,
		bytes:       res.DeliveredBytes,
		simSeconds:  costs.Seconds(res.Elapsed),
		p50:         costs.Micros(sim.Cycles(mid.P50)),
		p999:        costs.Micros(sim.Cycles(mid.P999)),
		latSamples:  mid.Delivered,
		fingerprint: fmt.Sprintf("%016x", res.Fingerprint()),
	}
	t.check("every message delivered or failed", res.Delivered+res.Failed == res.Messages,
		"%d delivered + %d failed of %d", res.Delivered, res.Failed, res.Messages)
	t.check("per-flow order held", res.OrderViolations == 0, "%d violations", res.OrderViolations)
	if reg != nil {
		t.counts = simCounts(reg)
		t.counts["sim.loadgen.max_queue_depth"] = float64(res.MaxQueueDepth)
		t.counts["sim.loadgen.retries"] = float64(res.Retries)
		t.counts["sim.loadgen.small_p999_us"] = costs.Micros(sim.Cycles(res.Classes[loadgen.ClassSmall].P999))
		t.counts["sim.loadgen.large_p999_us"] = costs.Micros(sim.Cycles(res.Classes[loadgen.ClassLarge].P999))
	}
	return t, nil
}

// simCounts reads the deterministic per-layer counts out of a registry
// after Cluster.PublishRollup: per-node counters summed over nodes,
// cluster rollup gauges, and per-node histogram p99s (the maximum over
// nodes, since the log-bucket histograms do not merge through the
// public API).
func simCounts(reg *telemetry.Registry) map[string]float64 {
	snap := reg.Snapshot()
	base := func(name string) string {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			return name[:i]
		}
		return name
	}
	ctr := func(name string) (sum, max float64) {
		for _, c := range snap.Counters {
			if base(c.Name) == name {
				v := float64(c.Value)
				sum += v
				if v > max {
					max = v
				}
			}
		}
		return sum, max
	}
	sum := func(name string) float64 { s, _ := ctr(name); return s }
	gauge := func(name string) float64 {
		for _, g := range snap.Gauges {
			if g.Name == name {
				return float64(g.Value)
			}
		}
		return 0
	}
	p99 := func(name string) float64 {
		var m float64
		for _, h := range snap.Histograms {
			if base(h.Name) == name && h.P99 > m {
				m = h.P99
			}
		}
		return m
	}
	lookups := gauge("cluster_nipt_hits") + gauge("cluster_nipt_misses")
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = gauge("cluster_nipt_hits") / lookups
	}
	hotFrac := 0.0
	if elapsed := gauge("cluster_max_cycles"); elapsed > 0 {
		_, hot := ctr("link_busy_cycles")
		hotFrac = hot / elapsed
	}
	return map[string]float64{
		"sim.kernel.context_switches":    sum("kernel_context_switches"),
		"sim.kernel.page_faults":         sum("kernel_page_faults"),
		"sim.core.initiations":           sum("udma_initiations"),
		"sim.core.queue_full":            sum("udma_queue_full"),
		"sim.core.queue_wait_p99_cycles": p99("udma_queue_wait_cycles"),
		"sim.bus.busy_cycles":            sum("bus_busy_cycles"),
		"sim.dma.transfers":              sum("dma_transfers"),
		"sim.nic.packets_sent":           gauge("cluster_packets_sent"),
		"sim.nic.retransmits":            gauge("cluster_retransmits"),
		"sim.nic.credit_stalls":          gauge("cluster_credit_stalls"),
		"sim.nic.nipt_lookups":           lookups,
		"sim.nic.nipt_hit_ratio":         hitRatio,
		"sim.nic.nipt_evictions":         gauge("cluster_nipt_evictions"),
		"sim.nic.nipt_refill_cycles":     gauge("cluster_nipt_refill_cycles"),
		"sim.nic.reclaims":               gauge("cluster_rel_reclaims"),
		"sim.nic.ack_rtt_p99_cycles":     p99("nic_ack_rtt_cycles"),
		"sim.fabric.link_busy_cycles":    gauge("cluster_link_busy_cycles"),
		"sim.fabric.link_wait_cycles":    gauge("cluster_link_wait_cycles"),
		"sim.fabric.link_queue_peak":     gauge("cluster_link_queue_peak"),
		"sim.fabric.hot_link_busy_frac":  hotFrac,
	}
}
