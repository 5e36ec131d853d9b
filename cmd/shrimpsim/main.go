// Command shrimpsim runs interactive scenarios on the simulated SHRIMP
// machine — a quick way to watch the UDMA mechanism work without
// writing a program against the library.
//
// Usage:
//
//	shrimpsim -scenario send        # two-instruction UDMA send on one node
//	shrimpsim -scenario cluster     # 4-node deliberate-update exchange
//	shrimpsim -scenario share       # untrusting processes share the device
//	shrimpsim -scenario paging      # UDMA under memory pressure (I2/I4)
//	shrimpsim -scenario faults      # injected faults, per-transfer recovery
//	shrimpsim -scenario lossy       # lossy wire vs the reliable delivery protocol
//	shrimpsim -scenario contention  # queued senders: latency under load
//	shrimpsim -scenario incast      # routed-fabric incast: goodput vs link capacity
//	shrimpsim -scenario incast -nodes 64 -topology torus
//	shrimpsim -scenario serve       # open-loop load at a fixed offered rate
//	shrimpsim -scenario serve -rate 1000 -nodes 4
//	shrimpsim -scenario churn       # short-lived flows vs a bounded NIPT cache
//	shrimpsim -scenario churn -capacity 16
//	shrimpsim -scenario chaos       # node crash–restart schedule vs availability
//	shrimpsim -scenario fuzz        # randomized run under the invariant auditor
//	shrimpsim -scenario fuzz -seed 7 -count 100
//	shrimpsim -list                 # scenario index with one-line descriptions
//	shrimpsim -nodes 8 -size 16384  # scenario parameters
//	shrimpsim -workers 8            # host goroutines for cluster windows and
//	                                # seed/rate sweeps (results are identical
//	                                # at any worker count)
//
// Observation flags (work with every scenario; telemetry is a pure
// observer, so they never change simulated results):
//
//	-metrics              print a telemetry snapshot (counters, gauges,
//	                      latency histograms with p50/p90/p99)
//	-metrics-out FILE     write the snapshot as JSON
//	-trace-out FILE       write a Chrome trace_event JSON file; open it
//	                      at https://ui.perfetto.dev
package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/device"
	"shrimp/internal/experiments"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/loadgen"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/simcheck"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// scenarioIndex is the -list readout: every scenario in presentation
// order with the one-liner a new user needs to pick one, plus the seed a
// seeded scenario runs with when -seed is not given.
var scenarioIndex = []struct {
	name, desc string
	seed       uint64
}{
	{"send", "two-instruction UDMA send on one node", 0},
	{"cluster", "N-node deliberate-update ring exchange", 0},
	{"share", "untrusting processes share one device (I1 protection)", 0},
	{"paging", "UDMA under memory pressure (I2/I4 guards)", 0},
	{"autoupdate", "plain stores propagate to a remote page, no initiation", 0},
	{"faults", "injected device faults vs per-transfer recovery", experiments.FaultSeed},
	{"lossy", "lossy wire vs the reliable delivery sublayer", experiments.LossySeed},
	{"contention", "queued senders: latency distributions under load", 0},
	{"incast", "routed-fabric incast: goodput flattens at per-link capacity", 0},
	{"serve", "open-loop load at a fixed offered rate, SLO readout", experiments.ServeSeed},
	{"churn", "short-lived flows vs a bounded NIPT cache", experiments.ChurnSeed},
	{"chaos", "seeded node crash–restart schedule vs availability SLOs", experiments.ChaosSeed},
	{"fuzz", "randomized runs under the simcheck invariant auditor", 1},
}

// options is the parsed command line.
type options struct {
	scenario, topology          string
	list, withTrace, metrics    bool
	nodes, size, senders, count int
	capacity, workers           int
	seed                        uint64
	rate                        float64
	metricsOut, traceOut        string
	cpuprofile, memprofile      string
}

// parseArgs defines the flags on fs and parses args. Without -seed, the
// scenario's own default seed from scenarioIndex applies; an explicit
// -seed always reaches the scenario as given.
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.scenario, "scenario", "send", "send | cluster | share | paging | autoupdate | faults | lossy | contention | incast | serve | churn | chaos | fuzz")
	fs.BoolVar(&o.list, "list", false, "list the scenarios with one-line descriptions and exit")
	fs.IntVar(&o.nodes, "nodes", 4, "cluster scenario: node count")
	fs.IntVar(&o.size, "size", 4096, "message size in bytes")
	fs.IntVar(&o.senders, "senders", 4, "share/contention scenarios: processes")
	fs.Uint64Var(&o.seed, "seed", 0, "seeded scenarios: RNG seed (fuzz: first seed; default: the scenario's own)")
	fs.IntVar(&o.count, "count", 1, "fuzz scenario: number of consecutive seeds to run")
	fs.Float64Var(&o.rate, "rate", 300, "serve/churn scenarios: offered load in messages per million cycles")
	fs.StringVar(&o.topology, "topology", "mesh", "incast scenario: routed fabric kind (mesh | torus)")
	fs.IntVar(&o.capacity, "capacity", 8, "churn scenario: NIPT cache capacity in entries (0 = unbounded)")
	fs.BoolVar(&o.withTrace, "trace", false, "send scenario: dump the hardware event trace")
	fs.BoolVar(&o.metrics, "metrics", false, "print a telemetry snapshot after the scenario")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the telemetry snapshot as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace_event JSON file (Perfetto) to this file")
	fs.IntVar(&o.workers, "workers", 1, "host goroutines: cluster node windows, fuzz seeds and experiment sweeps (results identical at any value)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the scenario to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if !seedSet {
		for _, sc := range scenarioIndex {
			if sc.name == o.scenario {
				o.seed = sc.seed
			}
		}
	}
	return o, o.checkRanges()
}

// checkRanges refuses a flag value outside what the scenarios accept,
// naming the flag and its bound, instead of a late panic or a quietly
// different run.
func (o options) checkRanges() error {
	minNodes := 1
	switch o.scenario {
	case "incast", "serve", "churn", "chaos":
		minNodes = 2
	}
	// The buffer device is 4-byte aligned, and a message must fit the
	// device pages its scenario gives it.
	maxSize := map[string]int{
		"share": addr.PageSize, "contention": addr.PageSize, // one page per process
		"paging":  pagingDevPages * addr.PageSize,
		"cluster": clusterWindowPages * addr.PageSize,
	}[o.scenario]
	sizeOK, sizeBound := o.size >= 4 && o.size%4 == 0, "a multiple of 4, >= 4"
	if maxSize > 0 {
		sizeOK = sizeOK && o.size <= maxSize
		sizeBound = fmt.Sprintf("a multiple of 4 in [4, %d] for -scenario %s", maxSize, o.scenario)
	}
	for _, c := range []struct {
		flag  string
		value any
		ok    bool
		bound string
	}{
		{"nodes", o.nodes, o.nodes >= minNodes, fmt.Sprintf(">= %d for -scenario %s", minNodes, o.scenario)},
		{"size", o.size, sizeOK, sizeBound},
		{"senders", o.senders, o.senders >= 1, ">= 1"},
		{"count", o.count, o.count >= 1, ">= 1"},
		{"workers", o.workers, o.workers >= 1, ">= 1"},
		{"rate", o.rate, o.rate > 0, "> 0"},
		{"capacity", o.capacity, o.capacity >= 0, ">= 0"},
	} {
		if !c.ok {
			return fmt.Errorf("-%s %v: must be %s", c.flag, c.value, c.bound)
		}
	}
	return nil
}

func main() {
	// flag.CommandLine exits on a bad flag itself; parseArgs fails here
	// only on a value out of range.
	a, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
		os.Exit(2)
	}
	if a.list {
		fmt.Println("scenarios:")
		for _, sc := range scenarioIndex {
			fmt.Printf("  %-12s %s\n", sc.name, sc.desc)
		}
		return
	}

	if a.cpuprofile != "" {
		f, perr := os.Create(a.cpuprofile)
		if perr == nil {
			perr = pprof.StartCPUProfile(f)
		}
		if perr != nil {
			fmt.Fprintf(os.Stderr, "shrimpsim: cpuprofile: %v\n", perr)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if a.memprofile != "" {
		defer func() {
			f, perr := os.Create(a.memprofile)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "shrimpsim: memprofile: %v\n", perr)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if perr := pprof.Lookup("allocs").WriteTo(f, 0); perr != nil {
				fmt.Fprintf(os.Stderr, "shrimpsim: memprofile: %v\n", perr)
			}
		}()
	}

	if err := run(a); err != nil {
		fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
		os.Exit(1)
	}
}

// run runs the scenario the options name on a.workers host goroutines
// and then prints or writes what the observation flags asked for.
func run(a options) error {
	experiments.SetSweepWorkers(a.workers)
	o := newObs(a.metrics, a.withTrace, a.metricsOut, a.traceOut)
	if err := runScenario(a, o); err != nil {
		return err
	}
	return o.finish(os.Stdout)
}

// runScenario runs the scenario the options name, observed by o.
func runScenario(a options, o *obs) error {
	switch a.scenario {
	case "send":
		return scenarioSend(a.size, a.withTrace, o)
	case "cluster":
		return scenarioCluster(a.nodes, a.size, a.workers, o)
	case "share":
		return scenarioShare(a.senders, a.size, o)
	case "paging":
		return scenarioPaging(a.size, o)
	case "autoupdate":
		return scenarioAutoUpdate(o)
	case "faults":
		fmt.Printf("# fault injection (seed %#x): rejections and completion failures vs bounded retry\n", a.seed)
		return scenarioSweep("fault-recovery", experiments.RunFaultInjectionSeeded, a.seed, a.workers)
	case "lossy":
		fmt.Printf("# lossy wire (seed %#x): drop/corrupt/dup/reorder vs seq/ACK/retransmit/CRC\n", a.seed)
		return scenarioSweep("lossy-wire", experiments.RunLossyWireSeeded, a.seed, a.workers)
	case "contention":
		return scenarioContention(a.senders, a.size, o)
	case "incast":
		return scenarioIncast(a.nodes, a.topology, a.workers, o)
	case "serve":
		return scenarioServe(a.seed, a.nodes, a.rate, a.workers, o)
	case "churn":
		return scenarioChurn(a.seed, a.nodes, a.rate, a.capacity, a.workers, o)
	case "chaos":
		return scenarioChaos(a.seed, a.nodes, a.rate, a.workers, o)
	case "fuzz":
		return scenarioFuzz(a.seed, a.count, a.workers)
	default:
		return fmt.Errorf("unknown scenario %q", a.scenario)
	}
}

// prove is the reproducibility proof every seeded scenario ends with.
// run executes the scenario at a worker count and returns its
// fingerprint; the reference run is repeated at the same worker count
// and once more at another one, and all three fingerprints must match —
// the simulation is a pure function of its inputs, not of host
// scheduling. Long fingerprints (rendered tables) print as their digest.
func prove(run func(workers int) (fingerprint string, err error), workers int) error {
	other := 4
	if workers == other {
		other = 1
	}
	ref, err := run(workers)
	if err != nil {
		return err
	}
	for _, w := range []int{workers, other} {
		fp, err := run(w)
		if err != nil {
			return err
		}
		if fp != ref {
			return fmt.Errorf("workers %d and %d runs diverge:\n--- reference\n%s\n--- rerun\n%s", workers, w, ref, fp)
		}
	}
	if len(ref) > 16 {
		h := fnv.New64a()
		h.Write([]byte(ref))
		ref = fmt.Sprintf("%016x", h.Sum64())
	}
	fmt.Printf("\nfingerprint %s reproduced exactly: a rerun and a %d-worker run\n", ref, other)
	return nil
}

// obs bundles the observation flags: one telemetry registry shared by
// every layer of the scenario's machine(s). Each node built with it gets
// an event tracer the registry lists for the Chrome trace export. The
// registry stays nil when no observation flag is set, so scenarios pay
// nothing.
type obs struct {
	metrics    bool
	metricsOut string
	traceOut   string
	reg        *telemetry.Registry
}

func newObs(metrics, withTrace bool, metricsOut, traceOut string) *obs {
	o := &obs{metrics: metrics, metricsOut: metricsOut, traceOut: traceOut}
	if metrics || withTrace || metricsOut != "" || traceOut != "" {
		o.reg = telemetry.New()
	}
	return o
}

// finish renders whatever the flags asked for.
func (o *obs) finish(w io.Writer) error {
	if o.reg == nil {
		return nil
	}
	snap := o.reg.Snapshot()
	if o.metrics {
		fmt.Fprintln(w, "\n# telemetry snapshot")
		snap.WriteText(w)
	}
	if o.metricsOut != "" {
		f, err := os.Create(o.metricsOut)
		if err != nil {
			return err
		}
		if err := snap.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "telemetry snapshot written to %s\n", o.metricsOut)
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		// Every scenario machine runs on the SHRIMP1996 cost model.
		if err := telemetry.WriteChromeTrace(f, machine.SHRIMP1996(), o.reg); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s (open at https://ui.perfetto.dev)\n", o.traceOut)
	}
	return nil
}

func scenarioSend(size int, withTrace bool, o *obs) error {
	fmt.Printf("# one-node UDMA send of %d bytes to a buffer device\n", size)
	n := machine.New(0, machine.Config{Metrics: o.reg})
	buf := device.NewBuffer("buf", uint32(size/addr.PageSize+2), 4, 0)
	n.AttachDevice(buf, 0)
	defer n.Kernel.Shutdown()

	var done sim.Cycles
	var sendErr error
	n.Kernel.Spawn("app", func(p *kernel.Proc) {
		done, _, sendErr = workload.Sender{Dev: buf, Size: size, Seed: 1, Messages: 1}.Run(p)
	})
	if err := n.Kernel.Run(sim.Forever); err != nil {
		return err
	}
	if sendErr != nil {
		return sendErr
	}
	fmt.Printf("sent %d bytes in %.1f µs (%.1f MB/s) — %d initiations, %d kernel page faults\n",
		size, n.Micros(done),
		float64(size)/n.Costs.Seconds(done)/1e6,
		n.UDMA.Stats().Initiations, n.Kernel.Stats().PageFaults)
	fmt.Println("the kernel was not involved in any initiation: only in creating proxy mappings on first touch")
	if withTrace {
		fmt.Println("\nhardware event trace:")
		n.Tracer.Dump(os.Stdout)
		fmt.Printf("summary: %s\n", n.Tracer.Summary())
	}
	return nil
}

// clusterWindowPages is the cluster scenario's send window: the NIPT
// entries each node maps toward its ring successor's frames 64 and up.
const clusterWindowPages = 64

func scenarioCluster(nodes, size, workers int, o *obs) error {
	fmt.Printf("# %d-node deliberate-update ring, %d bytes per message\n", nodes, size)
	c := cluster.New(cluster.Config{
		Nodes:   nodes,
		Workers: workers,
		Machine: machine.Config{RAMFrames: 128},
		NIC:     nic.Config{NIPTPages: clusterWindowPages},
		Metrics: o.reg,
	})
	defer c.Shutdown()

	pages := (size + addr.PageSize - 1) / addr.PageSize
	errs := make([]error, nodes)
	for i := 0; i < nodes; i++ {
		dst := (i + 1) % nodes
		pfns := make([]uint32, pages)
		for j := range pfns {
			pfns[j] = uint32(64 + j)
		}
		if err := udmalib.MapSendWindow(c.NICs[i], 0, dst, pfns); err != nil {
			return err
		}
		s := workload.Sender{Dev: c.NICs[i], Size: size, Seed: byte(i + 1), Messages: 1}
		c.Nodes[i].Kernel.Spawn(fmt.Sprintf("peer%d", i), func(p *kernel.Proc) {
			_, _, errs[i] = s.Run(p)
		})
	}
	if err := c.Run(1_000_000_000); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	for i := 0; i < nodes; i++ {
		s := c.NICs[i].Stats()
		fmt.Printf("node %d: sent %d B in %d packet(s), received %d B, clock %.0f µs\n",
			i, s.BytesSent, s.PacketsSent, s.BytesReceived,
			c.Nodes[i].Costs.Micros(c.Nodes[i].Clock.Now()))
	}
	c.PublishRollup()
	return nil
}

func scenarioShare(senders, size int, o *obs) error {
	fmt.Printf("# %d untrusting processes share one UDMA device (%d B messages)\n", senders, size)
	n, buf, retries, err := shareDevice(senders, size, 16, o)
	if err != nil {
		return err
	}
	ks := n.Kernel.Stats()
	fmt.Printf("context switches: %d, I1 Invals: %d (one per switch)\n", ks.ContextSwitches, ks.Invals)
	for i, r := range retries {
		intact := bytes.Equal(buf.Bytes(i*addr.PageSize, size), workload.Payload(size, byte(i+1)))
		fmt.Printf("process %d: %d retries, data intact: %v\n", i, r, intact)
	}
	return nil
}

// shareDevice runs senders time-sliced processes "p<i>" on one node,
// each sending messages × size bytes to its own page of one buffer
// device, and returns the node, the device and each process's initiation
// retries. It drives both share (I1 protection) and contention.
func shareDevice(senders, size, messages int, o *obs) (*machine.Node, *device.Buffer, []uint64, error) {
	n := machine.New(0, machine.Config{
		Kernel:  kernel.Config{Quantum: 2000},
		Metrics: o.reg,
	})
	buf := device.NewBuffer("buf", uint32(senders+1), 4, 0)
	n.AttachDevice(buf, 0)
	defer n.Kernel.Shutdown()

	errs := make([]error, senders)
	retries := make([]uint64, senders)
	for i := 0; i < senders; i++ {
		s := workload.Sender{Dev: buf, Size: size, Seed: byte(i + 1), Messages: messages,
			Offsets: []uint32{uint32(i) << addr.PageShift}}
		n.Kernel.Spawn(fmt.Sprintf("p%d", i), func(p *kernel.Proc) {
			var st udmalib.Stats
			_, st, errs[i] = s.Run(p)
			retries[i] = st.Retries
		})
	}
	if err := n.Kernel.Run(sim.Forever); err != nil {
		return nil, nil, nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("process %d: %w", i, err)
		}
	}
	return n, buf, retries, nil
}

func scenarioAutoUpdate(o *obs) error {
	fmt.Println("# automatic update: plain stores propagate to a remote page, no initiation at all")
	c := cluster.New(cluster.Config{Nodes: 2, NIC: nic.Config{NIPTPages: 8}, Metrics: o.reg})
	defer c.Shutdown()

	var sendErr error
	c.Nodes[0].Kernel.Spawn("writer", func(p *kernel.Proc) {
		// Export straight to raw remote frames 40.. (control plane).
		if err := udmalib.MapSendWindow(c.NICs[0], 0, 1, []uint32{40}); err != nil {
			sendErr = err
			return
		}
		src, err := p.Alloc(addr.PageSize)
		if err == nil {
			err = p.MapAutoUpdate(c.NICs[0], src, 1, 0)
		}
		if err != nil {
			sendErr = err
			return
		}
		start := p.Now()
		for i := uint32(0); i < 16; i++ {
			if err := p.Store(src+addr.VAddr(i*4), 0x1000+i); err != nil {
				sendErr = err
				return
			}
		}
		c.NICs[0].FlushAutoUpdate()
		fmt.Printf("16 plain stores published in %.1f µs of CPU time\n", p.Micros(p.Now()-start))
	})
	if err := c.Run(1_000_000_000); err != nil {
		return err
	}
	if sendErr != nil {
		return sendErr
	}
	st := c.NICs[0].Stats()
	fmt.Printf("snooped words: %d, combined packets: %d\n", st.AutoWords, st.AutoPackets)
	w, err := c.Nodes[1].RAM.ReadWord(addr.FrameAddr(40))
	if err != nil {
		return err
	}
	fmt.Printf("remote word 0 = %#x (want 0x1000)\n", w)
	c.PublishRollup()
	return nil
}

// scenarioSweep runs a seeded experiment sweep — e12's fault injection
// or e13's lossy wire — under prove, with the rendered tables as the
// fingerprint: the whole sweep, fault pattern included, must be a pure
// function of the seed. The first run's tables, checks and notes print.
func scenarioSweep(name string, sweep func(seed uint64) (*experiments.Result, error), seed uint64, workers int) error {
	var res *experiments.Result
	err := prove(func(w int) (string, error) {
		experiments.SetSweepWorkers(w)
		r, err := sweep(seed)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for _, t := range r.Tables {
			t.Render(&sb)
		}
		if res == nil {
			res = r
			fmt.Print(sb.String())
			fmt.Println()
			for _, c := range r.Checks {
				mark := "PASS"
				if !c.Pass {
					mark = "FAIL"
				}
				fmt.Printf("  [%s] %s", mark, c.Name)
				if c.Detail != "" {
					fmt.Printf(" — %s", c.Detail)
				}
				fmt.Println()
			}
			for _, note := range r.Notes {
				fmt.Printf("  note: %s\n", note)
			}
		}
		return sb.String(), nil
	}, workers)
	if err != nil {
		return err
	}
	if !res.Passed() {
		return fmt.Errorf("%s checks failed", name)
	}
	return nil
}

// scenarioIncast drives every node but node 0 to dump page-sized
// messages into node 0 across a routed fabric (-nodes, -topology),
// twice: once with every link throttled well below the receiver's bus
// rate — the fabric is the bottleneck and goodput flattens at the
// capacity of the victim router's inbound links — and once with ample
// links, where the receiver's bus is the bottleneck instead. The
// limited run is the one prove repeats: contention is resolved in merge
// order at barriers, not host arrival order.
func scenarioIncast(nodes int, topology string, workers int, o *obs) error {
	kind, err := interconnect.ParseKind(topology)
	if err != nil {
		return err
	}
	const messages = 6
	fmt.Printf("# incast on a routed %d-node %s: %d senders × %d × 4096 B into node 0\n",
		nodes, kind, nodes-1, messages)

	shown := false
	return prove(func(w int) (string, error) {
		var reg *telemetry.Registry
		if !shown {
			reg = o.reg
		}
		limited, err := experiments.RunIncast(nodes, kind, experiments.ScaleLimitedBPC, messages, w, reg)
		if err != nil {
			return "", err
		}
		if shown {
			return limited.Fingerprint, nil
		}
		shown = true
		ample, err := experiments.RunIncast(nodes, kind, 0, messages, w, nil)
		if err != nil {
			return "", err
		}
		row := func(name string, r *experiments.IncastRun, bpc float64) {
			cap := "host rate"
			if bpc > 0 {
				cap = fmt.Sprintf("%.2f B/cyc", bpc)
			}
			fmt.Printf("%-8s links at %-10s goodput %.3f B/cyc, hot link %3.0f%% busy, queue wait %.2f Mcyc, peak queue %d, %d links used\n",
				name, cap, r.GoodputBPC, 100*r.HotFrac, float64(r.WaitCycles)/1e6, r.PeakQueue, r.LinksUsed)
		}
		row("limited", limited, experiments.ScaleLimitedBPC)
		row("ample", ample, 0)
		if limited.GoodputBPC < ample.GoodputBPC {
			fmt.Println("the throttled fabric is the bottleneck: extra offered load becomes link queueing, not goodput")
		}
		return limited.Fingerprint, nil
	}, workers)
}

// scenarioTrial runs one open-loop loadgen trial under prove. The first
// run (the one the observation flags see) prints the title, the
// per-class SLO table and the scenario's readout extras; an extras error
// fails the scenario. Every run contributes the trial fingerprint.
func scenarioTrial(tc loadgen.TrialConfig, workers int, o *obs,
	title func(*loadgen.Result) string, extras func(*loadgen.Result) error) error {
	costs := machine.SHRIMP1996()
	shown := false
	return prove(func(w int) (string, error) {
		tc := tc
		tc.Workers = w
		if !shown {
			tc.Metrics = o.reg
		}
		res, err := loadgen.RunTrial(tc)
		if err != nil {
			return "", err
		}
		if !shown {
			shown = true
			fmt.Print(title(res))
			res.WriteTable(os.Stdout, costs)
			if err := extras(res); err != nil {
				return "", err
			}
		}
		return fmt.Sprintf("%016x", res.Fingerprint()), nil
	}, workers)
}

// scenarioServe is the open-loop serving trial: internal/loadgen offers
// a seeded Poisson schedule of PIO, UDMA and multi-page traffic at a
// fixed rate across per-destination FIFO flows, and the SLO readout
// (achieved rate, goodput, per-class sojourn percentiles) prints.
func scenarioServe(seed uint64, nodes int, rate float64, workers int, o *obs) error {
	tc := loadgen.TrialConfig{Config: loadgen.Config{Nodes: nodes, Seed: seed, Rate: rate}}
	return scenarioTrial(tc, workers, o, func(res *loadgen.Result) string {
		return fmt.Sprintf("# open-loop serving (seed %#x): %d nodes, %d messages across %d flows\n",
			seed, res.Cfg.Nodes, res.Messages, res.Cfg.Flows)
	}, func(res *loadgen.Result) error {
		printOrderLine(res)
		if res.AchievedRate < 0.9*res.OfferedRate {
			fmt.Println("the offered rate is past the saturation knee: queues grew and sojourn tails absorbed the backlog")
		} else {
			fmt.Println("the system kept up with the offered rate (below the saturation knee)")
		}
		return nil
	})
}

// scenarioChurn is the connection-churn trial: a live population of
// short-lived flows (each dying after a few messages, a fresh flow
// taking its slot), one NIPT entry per flow, against a bounded on-board
// NIPT cache over the host-memory backing table, with idle reliability
// state reclaimed at lockstep barriers. The readout shows what the
// cache costs — misses, evictions, refill cycles, sojourn tails.
func scenarioChurn(seed uint64, nodes int, rate float64, capacity, workers int, o *obs) error {
	tc := loadgen.TrialConfig{
		Config:           loadgen.Config{Nodes: nodes, Seed: seed, Rate: rate, Churn: true},
		NIPTCapacity:     capacity,
		NIPTRefillJitter: 64,
		IdleReclaimAge:   150_000,
	}
	capLabel := fmt.Sprint(capacity)
	if capacity == 0 {
		capLabel = "unbounded"
	}
	return scenarioTrial(tc, workers, o, func(res *loadgen.Result) string {
		return fmt.Sprintf("# connection churn (seed %#x): %d nodes, %d messages, %d live flows, NIPT capacity %s\n",
			seed, res.Cfg.Nodes, res.Messages, res.Cfg.ActiveFlows, capLabel)
	}, func(res *loadgen.Result) error {
		printOrderLine(res)
		if capacity > 0 && res.NIPTMisses == 0 {
			fmt.Println("the cache held the whole working set: no refills were ever paid")
		}
		return nil
	})
}

// scenarioChaos is the serving trial under a seeded node crash–restart
// schedule (cluster.CrashPlan): whole nodes power off at lockstep
// barriers, peers fail fast to a typed DeliveryError, and the rebooted
// node's serving complement respawns from the host-memory progress
// state. The availability readout — crashes, downtime, dip depth,
// time-to-recover — prints with the per-class SLO table.
func scenarioChaos(seed uint64, nodes int, rate float64, workers int, o *obs) error {
	tc := loadgen.TrialConfig{
		Config:        loadgen.Config{Nodes: nodes, Seed: seed, Rate: rate},
		RetxTimeout:   6_000,
		RelMaxRetries: 3,
		Crash: cluster.CrashPlan{Seed: seed, MTBF: 400_000,
			MTTR: 150_000, FirstAt: 150_000, MaxCrashes: 2},
	}
	return scenarioTrial(tc, workers, o, func(res *loadgen.Result) string {
		return fmt.Sprintf("# crash–restart chaos (seed %#x): %d nodes, %d messages under a seeded crash schedule\n",
			seed, res.Cfg.Nodes, res.Messages)
	}, func(res *loadgen.Result) error {
		if res.Crashes == 0 {
			return fmt.Errorf("the crash schedule never fired inside the trial's span; offer more load (-rate, default messages) or rerun with another -seed")
		}
		if res.Delivered+res.Failed != res.Messages {
			return fmt.Errorf("accounting across crashes: %d delivered + %d failed != %d offered",
				res.Delivered, res.Failed, res.Messages)
		}
		fmt.Printf("crash ledgers: %d B abandoned on crashed senders, %d B crash-dropped on the wire/boards\n",
			res.CrashAbandonedBytes, res.CrashDroppedBytes)
		return nil
	})
}

func printOrderLine(res *loadgen.Result) {
	fmt.Printf("order violations %d, retries %d, credit stalls %d, retransmits %d\n",
		res.OrderViolations, res.Retries, res.CreditStalls, res.Retransmits)
}

// scenarioFuzz runs seeded randomized scenarios under simcheck's
// online invariant auditor — the command-line face of the deterministic
// simulation checker. A failure prints the violation list, the event
// trail and the one-command go-test repro.
func scenarioFuzz(seed uint64, count, workers int) error {
	fmt.Printf("# simcheck fuzz: %d seed(s) starting at %d, auditing I1–I4 every window\n", count, seed)
	// Each seed is an independent simulation, so the sweep fans out over
	// host workers; reports come back (and print) in seed order.
	failures := 0
	for _, rep := range simcheck.Sweep(seed, count, workers, simcheck.Options{}) {
		fmt.Println(rep)
		if rep.Failed() {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d seeds violated an invariant", failures, count)
	}
	return nil
}

// pagingDevPages sizes the paging scenario's buffer device.
const pagingDevPages = 8

func scenarioPaging(size int, o *obs) error {
	fmt.Printf("# UDMA sends while a pager thrashes memory (I2/I4 at work)\n")
	n := machine.New(0, machine.Config{RAMFrames: 48, Metrics: o.reg})
	buf := device.NewBuffer("buf", pagingDevPages, 4, 0)
	n.AttachDevice(buf, 0)
	defer n.Kernel.Shutdown()

	var sendErr error
	n.Kernel.Spawn("sender", func(p *kernel.Proc) {
		_, _, sendErr = workload.Sender{Dev: buf, Size: size, Seed: 5, Messages: 32}.Run(p)
	})
	n.Kernel.Spawn("pager", workload.Pager(60, 40_000_000))
	if err := n.Kernel.Run(sim.Forever); err != nil {
		return err
	}
	if sendErr != nil {
		return sendErr
	}
	ks := n.Kernel.Stats()
	fmt.Printf("evictions: %d, page-ins: %d, I4 guard skips: %d, proxy faults: %d, pins: %d\n",
		ks.Evictions, ks.PageIns, ks.EvictionStallsI4, ks.ProxyFaults, ks.Pins)
	fmt.Println("no page was ever pinned for UDMA; the replacement sweep simply avoided in-flight frames")
	return nil
}

// scenarioContention drives many time-sliced senders through one UDMA
// controller so its request queue actually fills: transfer latency
// (enqueue to completion) and queue wait become distributions worth
// looking at, which is exactly what the telemetry histograms are for.
func scenarioContention(senders, size int, o *obs) error {
	const messages = 64
	fmt.Printf("# %d time-sliced senders push %d × %d B messages through one UDMA controller\n",
		senders, messages, size)
	n, _, retries, err := shareDevice(senders, size, messages, o)
	if err != nil {
		return err
	}
	var totalRetries uint64
	for _, r := range retries {
		totalRetries += r
	}
	us := n.UDMA.Stats()
	ks := n.Kernel.Stats()
	fmt.Printf("%d transfers completed in %.0f µs: %d retries, %d context switches, %d Invals\n",
		us.Completions, n.Micros(n.Clock.Now()), totalRetries,
		ks.ContextSwitches, ks.Invals)
	if o.reg == nil {
		fmt.Println("(rerun with -metrics to see the latency distribution)")
	}
	return nil
}
