// Command shrimpsim runs interactive scenarios on the simulated SHRIMP
// machine — a quick way to watch the UDMA mechanism work without
// writing a program against the library — and, with -exp, regenerates
// the paper's evaluation: every table and figure, with shape checks.
//
// Usage:
//
//	shrimpsim -list                 # every scenario and experiment, with the flags each reads
//	shrimpsim -scenario send        # two-instruction UDMA send on one node (the default)
//	shrimpsim -scenario cluster -nodes 8 -size 16384
//	shrimpsim -scenario incast -nodes 64 -topology torus
//	shrimpsim -scenario serve -rate 1000 -workers 8  # host goroutines; results
//	                                # are identical at any worker count
//	shrimpsim -scenario churn -capacity 16
//	shrimpsim -scenario fuzz -seed 7 -count 100
//	shrimpsim -exp all              # the paper's evaluation: every experiment (e1..e18)
//	shrimpsim -exp e1 -plot         # one experiment, with ASCII plots of its series
//	shrimpsim -exp all -csv DIR -json FILE  # series/tables as CSV, checks and metrics as JSON
//	shrimpsim -exp e14 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Each run reads only the flags -list names for it, plus -cpuprofile and
// -memprofile; any other flag given is refused with exit status 2. The
// observation flags — -metrics (a telemetry snapshot: counters, gauges,
// latency histograms), -metrics-out (the same as JSON) and -trace-out (a
// Chrome trace_event file for https://ui.perfetto.dev) — never change
// simulated results: telemetry is a pure observer.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
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

// scenario is one row of the scenario table: the name -scenario
// selects it by, its -list line, the seed a seeded scenario runs with
// when -seed is not given, the flags it reads besides -scenario and the
// profile flags, the -nodes floor and -size ceiling where it reads them
// (a 0 ceiling: none), and its body.
type scenario struct {
	name, desc        string
	seed              uint64
	reads             []string
	minNodes, maxSize int
	run               func(a options, o *obs) error
}

// observed returns flags plus the observation flags, which every
// scenario that builds an observed machine reads.
func observed(flags ...string) []string {
	return append(flags, "metrics", "metrics-out", "trace-out")
}

// scenarios is every scenario in presentation order. faults, lossy and
// fuzz build no observed machine, so they refuse the observation flags.
var scenarios = []scenario{
	{name: "send", desc: "two-instruction UDMA send on one node",
		reads: observed("size", "trace"), run: func(a options, o *obs) error { return scenarioSend(a.size, a.withTrace, o) }},
	{name: "cluster", desc: "N-node deliberate-update ring exchange",
		reads: observed("nodes", "size", "workers"), minNodes: 1, maxSize: clusterWindowPages * addr.PageSize,
		run: func(a options, o *obs) error { return scenarioCluster(a.nodes, a.size, a.workers, o) }},
	{name: "share", desc: "untrusting processes share one device (I1 protection)",
		reads: observed("senders", "size"), maxSize: addr.PageSize, // one page per process
		run: func(a options, o *obs) error { return scenarioShare(a.senders, a.size, o) }},
	{name: "paging", desc: "UDMA under memory pressure (I2/I4 guards)",
		reads: observed("size"), maxSize: pagingDevPages * addr.PageSize,
		run: func(a options, o *obs) error { return scenarioPaging(a.size, o) }},
	{name: "autoupdate", desc: "plain stores propagate to a remote page, no initiation",
		reads: observed(), run: func(_ options, o *obs) error { return scenarioAutoUpdate(o) }},
	{name: "faults", desc: "injected device faults vs per-transfer recovery",
		seed: experiments.FaultSeed, reads: []string{"seed", "workers"},
		run: func(a options, _ *obs) error {
			return scenarioSweep("fault injection", "rejections and completion failures vs bounded retry",
				experiments.RunFaultInjectionSeeded, a.seed, a.workers)
		}},
	{name: "lossy", desc: "lossy wire vs the reliable delivery sublayer",
		seed: experiments.LossySeed, reads: []string{"seed", "workers"},
		run: func(a options, _ *obs) error {
			return scenarioSweep("lossy wire", "drop/corrupt/dup/reorder vs seq/ACK/retransmit/CRC",
				experiments.RunLossyWireSeeded, a.seed, a.workers)
		}},
	{name: "contention", desc: "queued senders: latency distributions under load",
		reads: observed("senders", "size"), maxSize: addr.PageSize, // one page per process
		run: func(a options, o *obs) error { return scenarioContention(a.senders, a.size, o) }},
	{name: "incast", desc: "routed-fabric incast: goodput flattens at per-link capacity",
		reads: observed("nodes", "topology", "workers"), minNodes: 2,
		run: func(a options, o *obs) error { return scenarioIncast(a.nodes, a.topology, a.workers, o) }},
	{name: "serve", desc: "open-loop load at a fixed offered rate, SLO readout",
		seed: experiments.ServeSeed, reads: observed("seed", "nodes", "rate", "workers"), minNodes: 2,
		run: func(a options, o *obs) error { return scenarioServe(a.seed, a.nodes, a.rate, a.workers, o) }},
	{name: "churn", desc: "short-lived flows vs a bounded NIPT cache",
		seed: experiments.ChurnSeed, reads: observed("seed", "nodes", "rate", "capacity", "workers"), minNodes: 2,
		run: func(a options, o *obs) error { return scenarioChurn(a.seed, a.nodes, a.rate, a.capacity, a.workers, o) }},
	{name: "chaos", desc: "seeded node crash–restart schedule vs availability SLOs",
		seed: experiments.ChaosSeed, reads: observed("seed", "nodes", "rate", "workers"), minNodes: 2,
		run: func(a options, o *obs) error { return scenarioChaos(a.seed, a.nodes, a.rate, a.workers, o) }},
	{name: "fuzz", desc: "randomized runs under the simcheck invariant auditor",
		seed: 1, reads: []string{"seed", "count", "workers"},
		run: func(a options, _ *obs) error { return scenarioFuzz(a.seed, a.count, a.workers) }},
}

// expFlags is every flag -exp reads besides itself: the experiment
// registry takes no scenario parameter.
var expFlags = []string{"csv", "json", "plot", "workers"}

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
	exp, csv, jsonOut           string
	plot                        bool
	set                         []*flag.Flag // the flags given explicitly
	sc                          scenario     // the -scenario row (zero for -exp and -list)
}

// parseArgs defines the flags on fs, parses args and checks them against
// the run they select.
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.scenario, "scenario", "send", "the scenario to run (-list names each with the flags it reads)")
	fs.BoolVar(&o.list, "list", false, "list the scenarios and experiments with the flags each reads, and exit")
	fs.IntVar(&o.nodes, "nodes", 4, "node count")
	fs.IntVar(&o.size, "size", 4096, "message size in bytes")
	fs.IntVar(&o.senders, "senders", 4, "processes sharing one device")
	fs.Uint64Var(&o.seed, "seed", 0, "RNG seed, or the first of -count seeds (default: the scenario's own)")
	fs.IntVar(&o.count, "count", 1, "number of consecutive seeds to run")
	fs.Float64Var(&o.rate, "rate", 300, "offered load in messages per million cycles")
	fs.StringVar(&o.topology, "topology", "mesh", "routed fabric kind (mesh | torus)")
	fs.IntVar(&o.capacity, "capacity", 8, "NIPT cache capacity in entries (0 = unbounded)")
	fs.BoolVar(&o.withTrace, "trace", false, "dump the hardware event trace")
	fs.BoolVar(&o.metrics, "metrics", false, "print a telemetry snapshot after the run")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the telemetry snapshot as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace_event JSON file (Perfetto) to this file")
	fs.IntVar(&o.workers, "workers", 1, "host goroutines for node windows and seed/rate sweeps (results identical at any value)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile to this file at exit")
	fs.StringVar(&o.exp, "exp", "", "run an experiment (e1..e18, or all) instead of a scenario")
	fs.StringVar(&o.csv, "csv", "", "-exp: directory to write each experiment's series and tables into as CSV")
	fs.StringVar(&o.jsonOut, "json", "", "-exp: write per-experiment checks and headline metrics as JSON to this file")
	fs.BoolVar(&o.plot, "plot", false, "-exp: render ASCII plots of each experiment's series")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("%s: not a flag; flags after it would be ignored", fs.Arg(0))
	}
	fs.Visit(func(f *flag.Flag) { o.set = append(o.set, f) })
	err := o.resolve()
	return o, err
}

// resolve finds the run the flags select — -exp, else -list, else the
// -scenario row — and refuses, naming the flag, an unknown scenario, a
// flag given explicitly that the run does not read, and a value outside
// what the run accepts, instead of a late panic or a quietly different
// run. Every run reads -cpuprofile and -memprofile. Without -seed a
// seeded scenario runs with its row's seed; an explicit -seed always
// reaches it as given.
func (o *options) resolve() error {
	run, reads := "-exp", append([]string{"exp"}, expFlags...)
	switch {
	case o.exp != "":
	case o.list:
		run, reads = "-list", []string{"list"}
	default:
		i := slices.IndexFunc(scenarios, func(sc scenario) bool { return sc.name == o.scenario })
		if i < 0 {
			return fmt.Errorf("-scenario %s: must be a scenario -list names", o.scenario)
		}
		o.sc = scenarios[i]
		run, reads = "-scenario "+o.scenario, append([]string{"scenario"}, o.sc.reads...)
		if !slices.ContainsFunc(o.set, func(f *flag.Flag) bool { return f.Name == "seed" }) {
			o.seed = o.sc.seed
		}
	}
	for _, f := range o.set {
		if !slices.Contains(reads, f.Name) && f.Name != "cpuprofile" && f.Name != "memprofile" {
			return fmt.Errorf("-%s %v: must be unset with %s", f.Name, f.Value, run)
		}
	}
	_, known := experiments.Title(o.exp)
	// The buffer device is 4-byte aligned, and a message must fit the
	// device pages its scenario gives it.
	sizeOK, sizeBound := o.size >= 4 && o.size%4 == 0, "a multiple of 4, >= 4"
	if o.sc.maxSize > 0 {
		sizeOK = sizeOK && o.size <= o.sc.maxSize
		sizeBound = fmt.Sprintf("a multiple of 4 in [4, %d] for %s", o.sc.maxSize, run)
	}
	for _, c := range []struct {
		flag  string
		value any
		ok    bool
		bound string
	}{
		{"exp", o.exp, known || o.exp == "" || o.exp == "all", "an experiment id (e1..e18) or all"},
		{"nodes", o.nodes, o.nodes >= o.sc.minNodes, fmt.Sprintf(">= %d for %s", o.sc.minNodes, run)},
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
	// only on a value out of range or a flag the run would not read.
	a, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
		os.Exit(2)
	}
	// os.Exit skips deferred calls, so the profiles are stopped and
	// written inside runProfiled, before the process exits.
	os.Exit(runProfiled(a))
}

// runProfiled runs what a names under the profiles it asks for and
// returns the exit status. A failing run still leaves whole profiles.
func runProfiled(a options) int {
	if a.cpuprofile != "" {
		f, err := os.Create(a.cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "shrimpsim: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "shrimpsim: cpuprofile: %v\n", err)
			}
		}()
	}
	if a.memprofile != "" {
		defer func() {
			runtime.GC() // materialize the final live set
			err := writeFile(a.memprofile, func(w io.Writer) error {
				return pprof.Lookup("allocs").WriteTo(w, 0)
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "shrimpsim: memprofile: %v\n", err)
			}
		}()
	}
	if err := run(a); err != nil {
		fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
		return 1
	}
	return 0
}

// run runs what the options select — the experiments, the -list
// readout or the scenario — on a.workers host goroutines and then
// prints or writes what the output flags asked for.
func run(a options) error {
	experiments.SetSweepWorkers(a.workers)
	switch {
	case a.exp != "":
		return runExperiments(a)
	case a.list:
		printList()
		return nil
	}
	o := newObs(a)
	if err := a.sc.run(a, o); err != nil {
		return err
	}
	return o.finish(os.Stdout)
}

// printList is the -list readout: each scenario with its one-liner and
// the flags it reads, then each experiment.
func printList() {
	flags := func(names []string) string { return "-" + strings.Join(names, " -") }
	fmt.Println("every run reads -cpuprofile -memprofile and the flags listed for it; any other flag is refused")
	fmt.Println("scenarios (-scenario NAME):")
	for _, sc := range scenarios {
		fmt.Printf("  %-12s %s\n  %-12s flags: %s\n", sc.name, sc.desc, "", flags(sc.reads))
	}
	fmt.Printf("experiments (-exp ID, or -exp all; flags: %s):\n", flags(expFlags))
	for _, id := range experiments.IDs() {
		title, _ := experiments.Title(id)
		fmt.Printf("  %-12s %s\n", id, title)
	}
}

// prove is the reproducibility proof every seeded scenario ends with.
// run executes the scenario at a worker count and returns its
// fingerprint; first is set on the reference run only, the one that
// prints the readout and that the observation flags see. The reference
// run is repeated at the same worker count and once more at another
// one, and all three fingerprints must match — the simulation is a pure
// function of its inputs, not of host scheduling. Long fingerprints
// (rendered tables) print as their digest.
func prove(run func(workers int, first bool) (fingerprint string, err error), workers int) error {
	other := 4
	if workers == other {
		other = 1
	}
	ref, err := run(workers, true)
	if err != nil {
		return err
	}
	for _, w := range []int{workers, other} {
		fp, err := run(w, false)
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
	options
	reg *telemetry.Registry
}

func newObs(a options) *obs {
	o := &obs{options: a}
	if a.metrics || a.withTrace || a.metricsOut != "" || a.traceOut != "" {
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
		if err := writeFile(o.metricsOut, snap.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "telemetry snapshot written to %s\n", o.metricsOut)
	}
	if o.traceOut != "" {
		// Every scenario machine runs on the SHRIMP1996 cost model.
		err := writeFile(o.traceOut, func(w io.Writer) error {
			return telemetry.WriteChromeTrace(w, machine.SHRIMP1996(), o.reg)
		})
		if err != nil {
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
	n, buf, retries, err := experiments.ShareDevice(senders, 16, size, o.reg)
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

// runExperiments runs the experiment -exp names, or every one for
// "all": each prints its header, tables, plots under -plot, checks and
// notes, and writes its series and tables under -csv. -json gets every
// record at the end; only then does a failed shape check fail the run.
func runExperiments(a options) error {
	ids := []string{a.exp}
	if a.exp == "all" {
		ids = experiments.IDs()
	}
	var records []expRecord
	failed := 0
	for _, id := range ids {
		res, err := experiments.Run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		printResult(res, a.plot)
		if a.csv != "" {
			if err := writeCSV(a.csv, res); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
		records = append(records, expRecord{res.ID, res.Title, res.Passed(), res.Checks, res.Metrics})
		if !res.Passed() {
			failed++
		}
	}
	if a.jsonOut != "" {
		err := writeFile(a.jsonOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(records)
		})
		if err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed their shape checks", failed)
	}
	return nil
}

// expRecord is the -json record of one experiment: pass/fail, its
// checks and its headline metrics, for regression tracking.
type expRecord struct {
	ID      string              `json:"id"`
	Title   string              `json:"title"`
	Passed  bool                `json:"passed"`
	Checks  []experiments.Check `json:"checks"`
	Metrics map[string]float64  `json:"metrics,omitempty"`
}

func printResult(res *experiments.Result, plot bool) {
	rule := strings.Repeat("=", 72)
	fmt.Println(rule)
	fmt.Printf("%s — %s\n", strings.ToUpper(res.ID), res.Title)
	fmt.Printf("paper: %s\n", res.Paper)
	fmt.Println(rule)
	for _, t := range res.Tables {
		fmt.Println()
		t.Render(os.Stdout)
	}
	if plot {
		for _, s := range res.Series {
			fmt.Println()
			s.PlotASCII(os.Stdout, 64, 16)
		}
	}
	fmt.Println()
	printChecks(res)
	fmt.Println()
}

// printChecks prints an experiment's check lines, each with its detail
// when it has one, then its note lines.
func printChecks(res *experiments.Result) {
	for _, c := range res.Checks {
		mark, detail := "PASS", ""
		if !c.Pass {
			mark = "FAIL"
		}
		if c.Detail != "" {
			detail = " — " + c.Detail
		}
		fmt.Printf("  [%s] %s%s\n", mark, c.Name, detail)
	}
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

func writeCSV(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, s := range res.Series {
		path := filepath.Join(dir, fmt.Sprintf("%s_series%d.csv", res.ID, i))
		if err := writeFile(path, s.WriteCSV); err != nil {
			return err
		}
	}
	for i, t := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", res.ID, i))
		if err := writeFile(path, t.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scenarioSweep runs a seeded experiment sweep — e12's fault injection
// or e13's lossy wire — under prove, with the rendered tables as the
// fingerprint: the whole sweep, fault pattern included, must be a pure
// function of the seed. The title line and the first run's tables,
// checks and notes print.
func scenarioSweep(name, what string, sweep func(seed uint64) (*experiments.Result, error), seed uint64, workers int) error {
	fmt.Printf("# %s (seed %#x): %s\n", name, seed, what)
	passed := false
	err := prove(func(w int, first bool) (string, error) {
		experiments.SetSweepWorkers(w)
		r, err := sweep(seed)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for _, t := range r.Tables {
			t.Render(&sb)
		}
		if first {
			passed = r.Passed()
			fmt.Println(sb.String())
			printChecks(r)
		}
		return sb.String(), nil
	}, workers)
	if err != nil {
		return err
	}
	if !passed {
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

	return prove(func(w int, first bool) (string, error) {
		var reg *telemetry.Registry
		if first {
			reg = o.reg
		}
		limited, err := experiments.RunIncast(nodes, kind, experiments.ScaleLimitedBPC, messages, w, reg)
		if err != nil {
			return "", err
		}
		if !first {
			return limited.Fingerprint, nil
		}
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
	return prove(func(w int, first bool) (string, error) {
		tc := tc
		tc.Workers = w
		if first {
			tc.Metrics = o.reg
		}
		res, err := loadgen.RunTrial(tc)
		if err != nil {
			return "", err
		}
		if first {
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
	n, _, retries, err := experiments.ShareDevice(senders, messages, size, o.reg)
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
