package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"shrimp/internal/telemetry"
)

// setupRuns is how many one-message runs set-up time is the median of.
const setupRuns = 21

// minTrials is the fewest timed trials a measurement phase runs, even
// when one trial outlasts the phase's share of the run.
const minTrials = 3

// rssTrials is how many untimed trials the peak resident set is the
// smallest of. Each starts from a heap returned to the OS; the timed
// trials do not, since refaulting the heap would cost them time.
const rssTrials = 3

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is a workload's full readout: every metric with its unit, the
// correctness checks and the fingerprint. It is the line -compare reads.
type report struct {
	Workload     string           `json:"workload"`
	Seed         uint64           `json:"seed"`
	Trace        bool             `json:"trace"`
	Trials       int              `json:"trials"`
	TracedTrials int              `json:"traced_trials,omitempty"`
	SetupRuns    int              `json:"setup_runs"`
	Workers      int              `json:"workers"`
	HostCPUs     int              `json:"host_cpus"`
	GOMAXPROCS   int              `json:"gomaxprocs"`
	GoVersion    string           `json:"go"`
	Fingerprint  string           `json:"fingerprint"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	Checks       []check          `json:"checks"`
	Metrics      map[string]value `json:"metrics"`
	Profile      string           `json:"profile,omitempty"`
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *report) set(name string, v float64) {
	d, _ := findDef(name)
	r.Metrics[name] = value{Value: v, Unit: d.unit}
}

// hostSample is one timed trial's host cost.
type hostSample struct {
	wall, cpu float64 // seconds
	msgs      int
}

// workersFor caps a workload's worker count at the host's CPU count,
// so the benchmark never runs more simulation threads than CPUs.
func workersFor(w workload) int {
	if n := runtime.NumCPU(); w.workers > n {
		return n
	}
	return w.workers
}

// measure runs one workload for about seconds of timed trials (plus the
// set-up runs, the reference trial and the memory trials) and fills its
// report. A traced run splits the time between untraced and traced
// trials and adds the per-layer metrics.
func measure(w workload, seed uint64, seconds float64, traced bool, outDir string) (*report, error) {
	// GOMAXPROCS matches the worker count: a serial simulation's
	// coroutine handoffs then stay on one thread, where a second, idle P
	// adds cross-thread wakeups and doubles the run-to-run spread on a
	// shared host.
	workers := workersFor(w)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	rep := &report{
		Workload: w.name, Seed: seed, Trace: traced, SetupRuns: setupRuns, Workers: workers,
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Metrics: map[string]value{},
	}

	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		start := time.Now()
		t, err := w.run(seed, w.one, workers, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up run: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			for _, c := range t.checks {
				rep.check("set-up run: "+c.Name, c.OK, "%s", c.Detail)
			}
		}
	}

	// The reference trial lets lazy set-up finish and fixes the simulated
	// readout every later trial must reproduce.
	ref, rss0, err := rssTrial(w, seed, workers)
	if err != nil {
		return nil, fmt.Errorf("reference trial: %w", err)
	}
	rep.Checks = append(rep.Checks, ref.checks...)
	rep.Fingerprint = ref.fingerprint
	if seed == w.seed {
		pin := pins()[w.name]
		rep.check("default-seed fingerprint matches the pin", ref.fingerprint == pin,
			"%s vs pinned %q", ref.fingerprint, pin)
	}

	budget := seconds
	if traced {
		budget = seconds / 2
	}
	untraced, err := timedTrials(w, seed, workers, budget, ref, false)
	if err != nil {
		return nil, err
	}
	plain := untraced.samples
	rep.Trials = len(plain)
	for _, s := range plain {
		rep.Attempted += s.msgs
	}
	rep.Failed = ref.failed * len(plain)
	rss := []float64{rss0}
	for len(rss) < rssTrials {
		t, r, err := rssTrial(w, seed, workers)
		if err != nil {
			return nil, err
		}
		if t.fingerprint != ref.fingerprint {
			return nil, fmt.Errorf("memory trial: fingerprint %s differs from the reference %s", t.fingerprint, ref.fingerprint)
		}
		rss = append(rss, r)
	}

	msgsPerS := make([]float64, len(plain))
	cpus := make([]float64, len(plain))
	for i, s := range plain {
		msgsPerS[i] = float64(s.msgs) / s.wall
		cpus[i] = s.cpu
	}
	rep.set("msgs_per_s", median(msgsPerS))
	rep.set("setup_s", median(setups))
	rep.set("cpu_s", median(cpus))
	// GC timing only ever adds to a trial's peak, so the smallest peak
	// is the steady reading.
	sort.Float64s(rss)
	rep.set("max_rss_mb", rss[0])
	rep.set("sim_goodput_MBps", float64(ref.bytes)/ref.simSeconds/1e6)
	rep.Metrics["sim_p50_us"] = value{Value: ref.p50, Unit: "us", Samples: ref.latSamples}
	rep.Metrics["sim_p999_us"] = value{Value: ref.p999, Unit: "us", Samples: ref.latSamples}
	rep.set("fail_ratio", float64(ref.failed)/float64(ref.attempted))

	if !traced {
		return rep, nil
	}
	tr, err := timedTrials(w, seed, workers, seconds/2, ref, true)
	if err != nil {
		return nil, err
	}
	rep.TracedTrials = len(tr.samples)
	if err := addPerLayer(rep, w, tr, msgsPerS, workers, outDir); err != nil {
		return nil, err
	}
	return rep, nil
}

// phase is what a run of timed trials collected: each trial's host cost
// and, for traced trials, the profile attribution, the Go runtime's
// allocation and GC deltas, and the registry's simulated counts.
type phase struct {
	samples []hostSample
	attr    attribution
	profile []byte // the last trial's gzipped CPU profile
	mem     runtime.MemStats
	counts  map[string]float64
}

// rssTrial runs one untimed trial from a heap returned to the OS and
// returns it with its peak resident set in MB.
func rssTrial(w workload, seed uint64, workers int) (*trial, float64, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	t, err := w.run(seed, w.size, workers, nil)
	return t, peakRSSMB(), err
}

// timedTrials runs trials back to back until budget seconds have passed
// (at least minTrials), each from a freshly collected heap, and checks
// each reproduces the reference trial's simulated readout. Traced trials
// attach a telemetry registry and record a CPU profile per trial.
func timedTrials(w workload, seed uint64, workers int, budget float64, ref *trial, traced bool) (*phase, error) {
	ph := &phase{}
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for len(ph.samples) < minTrials || time.Now().Before(deadline) {
		runtime.GC()
		var reg *telemetry.Registry
		var prof bytes.Buffer
		var m0, m1 runtime.MemStats
		if traced {
			reg = telemetry.New()
			runtime.ReadMemStats(&m0)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		cpu0 := cpuSeconds()
		start := time.Now()
		t, err := w.run(seed, w.size, workers, reg)
		wall := time.Since(start).Seconds()
		cpu := cpuSeconds() - cpu0
		if traced {
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&m1)
		}
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", len(ph.samples)+1, err)
		}
		if t.fingerprint != ref.fingerprint {
			return nil, fmt.Errorf("trial %d: fingerprint %s differs from the reference %s",
				len(ph.samples)+1, t.fingerprint, ref.fingerprint)
		}
		ph.samples = append(ph.samples, hostSample{wall: wall, cpu: cpu, msgs: t.attempted})
		if !traced {
			continue
		}
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		ph.attr.add(attribute(p))
		ph.profile = prof.Bytes()
		ph.mem.Mallocs += m1.Mallocs - m0.Mallocs
		ph.mem.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
		ph.mem.NumGC += m1.NumGC - m0.NumGC
		ph.mem.PauseTotalNs += m1.PauseTotalNs - m0.PauseTotalNs
		ph.counts = t.counts
	}
	return ph, nil
}

// addPerLayer fills a traced run's per-layer metrics. Host times are per
// trial; the simulated counts come from the traced trials' registries.
func addPerLayer(rep *report, w workload, tr *phase, plainRates []float64, workers int, outDir string) error {
	n := float64(len(tr.samples))
	var wall, cpu float64
	var msgs int
	rates := make([]float64, len(tr.samples))
	for i, s := range tr.samples {
		wall += s.wall
		cpu += s.cpu
		msgs += s.msgs
		rates[i] = float64(s.msgs) / s.wall
	}
	var layerSum float64
	for _, l := range hostLayers {
		rep.set("host."+l+"_s", tr.attr.self[l]/n)
		layerSum += tr.attr.self[l]
	}
	rep.check("host layer times sum to the profiled CPU",
		tr.attr.samples > 0 && abs(layerSum-tr.attr.total) <= 1e-9*tr.attr.total,
		"%.6f s in layers, %.6f s profiled, %d samples", layerSum, tr.attr.total, tr.attr.samples)
	rep.set("host.samples", float64(tr.attr.samples))
	for _, c := range cumEntries {
		rep.set(c.metric, tr.attr.cum[c.metric]/n)
	}
	rep.set("host.allocs_per_msg", float64(tr.mem.Mallocs)/float64(msgs))
	rep.set("host.alloc_bytes_per_msg", float64(tr.mem.TotalAlloc)/float64(msgs))
	rep.set("host.gc_cycles", float64(tr.mem.NumGC)/n)
	rep.set("host.gc_pause_s", float64(tr.mem.PauseTotalNs)/1e9/n)
	rep.set("host.cpu_util", cpu/wall)

	micro, err := runMicros(workers)
	if err != nil {
		return err
	}
	for k, v := range micro {
		rep.set(k, v)
	}
	for _, d := range simCountDefs {
		rep.set(d.name, tr.counts[d.name])
	}
	rep.set("trace_overhead", median(plainRates)/median(rates)-1)

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		rep.Profile = filepath.Join(outDir, fmt.Sprintf("%s-seed%d-cpu.pprof", w.name, rep.Seed))
		if err := os.WriteFile(rep.Profile, tr.profile, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// getrusage(RUSAGE_SELF) fails only on a bad buffer address.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS lowers the kernel's resident-set high-water mark to the
// current resident set (Linux 4.0+), so peakRSSMB then reads the peak
// since this call rather than since the process started.
func resetPeakRSS() {
	// Without the reset the reading is the process-lifetime peak, which
	// still bounds every trial's; nothing else depends on it.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark in MB: VmHWM, falling
// back to getrusage's process-lifetime ru_maxrss (both in KB).
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad buffer address
	return float64(ru.Maxrss) / 1024
}
