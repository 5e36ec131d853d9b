package main

// metricDef describes one reported metric. Host metrics are measured on
// the wall clock and gated by a relative bound; simulated metrics are a
// pure function of the seed, so their bound is zero: any change is a
// model change and shows in the fingerprint too.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
	host   bool
}

// endToEnd are the metrics an untraced run reports. The host bounds come
// from calibration (README.md); BENCHMARK.json lists the host metrics
// with the same bounds, and fail_ratio appears there as the result's
// attempted and failed counts.
var endToEnd = []metricDef{
	{"msgs_per_s", "msg/s", "higher", 0.25, true},
	{"setup_s", "s", "lower", 0.25, true},
	{"cpu_s", "s", "lower", 0.25, true},
	{"max_rss_mb", "MB", "lower", 0.10, true},
	{"sim_goodput_MBps", "MB/s", "higher", 0, false},
	{"sim_p50_us", "us", "lower", 0, false},
	{"sim_p999_us", "us", "lower", 0, false},
	{"fail_ratio", "ratio", "lower", 0, false},
}

// hostLayers are the profile partition's layers, in report order: every
// CPU sample lands in exactly one (profile.go).
var hostLayers = []string{
	"gc_alloc", "sched",
	"kernel", "mmu", "core", "bus", "dma", "mem", "sim", "nic",
	"interconnect", "cluster", "sweep", "loadgen", "udmalib", "telemetry",
	"other",
}

// cumEntries maps each cumulative-time metric to the exported functions
// whose stacks it covers.
var cumEntries = []struct {
	metric string
	funcs  []string
}{
	{"host.cum.cluster.Step_s", []string{"shrimp/internal/cluster.(*Cluster).Step"}},
	{"host.cum.interconnect.Flush_s", []string{"shrimp/internal/interconnect.(*Backplane).Flush"}},
	{"host.cum.nic.ReclaimIdle_s", []string{"shrimp/internal/nic.(*Interface).ReclaimIdle"}},
	{"host.cum.cluster.DrainHardware_s", []string{"shrimp/internal/cluster.(*Cluster).DrainHardware"}},
	{"host.cum.loadgen.PublishControl_s", []string{"shrimp/internal/loadgen.(*Driver).PublishControl"}},
	{"host.cum.setup_s", []string{"shrimp/internal/cluster.New", "shrimp/internal/loadgen.BuildPlan",
		"shrimp/internal/loadgen.NewDriver"}},
}

// simCountDefs are the deterministic per-layer counts (simCounts plus
// the workload-specific ones). A workload without the layer reports 0.
var simCountDefs = []metricDef{
	{name: "sim.kernel.context_switches", unit: "count", better: "lower"},
	{name: "sim.kernel.page_faults", unit: "count", better: "lower"},
	{name: "sim.core.initiations", unit: "count", better: "lower"},
	{name: "sim.core.queue_full", unit: "count", better: "lower"},
	{name: "sim.core.queue_wait_p99_cycles", unit: "cycles", better: "lower"},
	{name: "sim.bus.busy_cycles", unit: "cycles", better: "lower"},
	{name: "sim.dma.transfers", unit: "count", better: "lower"},
	{name: "sim.nic.packets_sent", unit: "count", better: "lower"},
	{name: "sim.nic.retransmits", unit: "count", better: "lower"},
	{name: "sim.nic.credit_stalls", unit: "count", better: "lower"},
	{name: "sim.nic.nipt_lookups", unit: "count", better: "lower"},
	{name: "sim.nic.nipt_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sim.nic.nipt_evictions", unit: "count", better: "lower"},
	{name: "sim.nic.nipt_refill_cycles", unit: "cycles", better: "lower"},
	{name: "sim.nic.reclaims", unit: "count", better: "lower"},
	{name: "sim.nic.ack_rtt_p99_cycles", unit: "cycles", better: "lower"},
	{name: "sim.fabric.link_busy_cycles", unit: "cycles", better: "lower"},
	{name: "sim.fabric.link_wait_cycles", unit: "cycles", better: "lower"},
	{name: "sim.fabric.link_queue_peak", unit: "count", better: "lower"},
	{name: "sim.fabric.hot_link_busy_frac", unit: "ratio", better: "lower"},
	{name: "sim.cluster.barrier_rounds", unit: "count", better: "lower"},
	{name: "sim.loadgen.max_queue_depth", unit: "count", better: "lower"},
	{name: "sim.loadgen.retries", unit: "count", better: "lower"},
	{name: "sim.loadgen.small_p999_us", unit: "us", better: "lower"},
	{name: "sim.loadgen.large_p999_us", unit: "us", better: "lower"},
}

// microNames are the microbenchmarks on public calls (micro.go); each
// reports ns/op as <name>_ns and allocs/op as <name>_allocs.
var microNames = []string{"micro.kernel.handoff", "micro.mmu.translate", "micro.cluster.step_idle64"}

// perLayer lists every metric a traced run reports, in order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range hostLayers {
		out = append(out, metricDef{name: "host." + l + "_s", unit: "s", better: "lower"})
	}
	out = append(out, metricDef{name: "host.samples", unit: "count", better: "lower"})
	for _, c := range cumEntries {
		out = append(out, metricDef{name: c.metric, unit: "s", better: "lower"})
	}
	out = append(out,
		metricDef{name: "host.allocs_per_msg", unit: "count", better: "lower"},
		metricDef{name: "host.alloc_bytes_per_msg", unit: "B", better: "lower"},
		metricDef{name: "host.gc_cycles", unit: "count", better: "lower"},
		metricDef{name: "host.gc_pause_s", unit: "s", better: "lower"},
		metricDef{name: "host.cpu_util", unit: "ratio", better: "higher"},
	)
	for _, m := range microNames {
		out = append(out,
			metricDef{name: m + "_ns", unit: "ns", better: "lower"},
			metricDef{name: m + "_allocs", unit: "count", better: "lower"})
	}
	out = append(out, simCountDefs...)
	return append(out, metricDef{name: "trace_overhead", unit: "ratio", better: "lower"})
}

func findDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	for _, d := range perLayer() {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
