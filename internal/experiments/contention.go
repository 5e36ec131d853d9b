package experiments

import (
	"fmt"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// RunContextSwitch reproduces the Section 6 / invariant I1 machinery:
// the kernel fires one Inval store on every context switch, so a
// process preempted between its STORE and LOAD retries the sequence.
// We share one UDMA device among 1–8 untrusting sender processes and
// show (a) everyone's data arrives intact, (b) retries appear as soon
// as there is sharing, (c) one Inval per context switch, and (d) the
// per-sender overhead of the recovery protocol stays small.
func RunContextSwitch() (*Result, error) {
	res := &Result{
		ID:    "e7",
		Title: "Context-switch Inval (I1) under device sharing",
		Paper: "recovery is one STORE per switch; the application retries and loses little",
	}

	// 4 KB messages: each transfer (~125 µs of bus time) spans several
	// 2000-cycle quanta, so competing initiations really do find the
	// engine busy and exercise the retry protocol.
	tbl := stats.NewTable("N senders sharing one UDMA device (64 messages of 4 KB each)",
		"senders", "total µs", "retries", "invals", "ctx switches", "µs/message",
		"xfer p50 µs", "xfer p99 µs", "xfer p999 µs")
	series := &stats.Series{Name: "aggregate time vs senders", XLabel: "senders", YLabel: "µs"}

	var rows []contentionRow
	for _, senders := range []int{1, 2, 4, 8} {
		r, err := contentionRun(senders, 64, 4096)
		if err != nil {
			return nil, fmt.Errorf("%d senders: %w", senders, err)
		}
		rows = append(rows, r)
		series.Add(float64(senders), r.us)
		tbl.AddRow(fmt.Sprintf("%d", r.n), fmt.Sprintf("%.0f", r.us),
			fmt.Sprintf("%d", r.retries), fmt.Sprintf("%d", r.invals),
			fmt.Sprintf("%d", r.switches), fmt.Sprintf("%.1f", r.perMsg),
			fmt.Sprintf("%.1f", r.p50us), fmt.Sprintf("%.1f", r.p99us),
			fmt.Sprintf("%.1f", r.p999us))
	}
	res.Tables = append(res.Tables, tbl)
	res.Series = append(res.Series, series)

	res.check("single sender needs no retries", rows[0].retries == 0,
		"%d retries with 1 sender", rows[0].retries)
	res.check("sharing produces retries (I1 recovery in action)", rows[2].retries > 0,
		"%d retries with 4 senders", rows[2].retries)
	res.check("one Inval per context switch", allInvalsMatch(rows),
		"invals == context switches in every configuration")
	res.check("per-message cost grows slowly with sharing",
		rows[3].perMsg < rows[0].perMsg*16,
		"%.1f µs/msg at 8 senders vs %.1f at 1 (device is serialized, CPU is shared)",
		rows[3].perMsg, rows[0].perMsg)
	res.check("transfer latency histogram populated", rows[0].p50us > 0 && rows[3].p99us > 0,
		"p50 %.1f µs at 1 sender, p99 %.1f µs at 8", rows[0].p50us, rows[3].p99us)
	res.check("latency percentiles ordered (p50 <= p99 <= p999)",
		percentilesOrdered(rows),
		"p50 %.1f <= p99 %.1f <= p999 %.1f µs at 8 senders",
		rows[3].p50us, rows[3].p99us, rows[3].p999us)
	res.metric("per_msg_us_1_sender", rows[0].perMsg)
	res.metric("per_msg_us_8_senders", rows[3].perMsg)
	res.metric("xfer_p50_us_1_sender", rows[0].p50us)
	res.metric("xfer_p99_us_8_senders", rows[3].p99us)
	res.metric("xfer_p999_us_8_senders", rows[3].p999us)
	res.metric("retries_8_senders", float64(rows[3].retries))
	return res, nil

}

type contentionRow struct {
	n        int
	us       float64
	retries  uint64
	invals   uint64
	switches uint64
	perMsg   float64
	p50us    float64 // enqueue→completion transfer latency percentiles
	p99us    float64
	p999us   float64
}

func percentilesOrdered(rows []contentionRow) bool {
	for _, r := range rows {
		if r.p50us > r.p99us || r.p99us > r.p999us {
			return false
		}
	}
	return true
}

func allInvalsMatch(rows []contentionRow) bool {
	for _, r := range rows {
		if r.invals != r.switches {
			return false
		}
	}
	return true
}

func contentionRun(senders, messages, size int) (contentionRow, error) {
	out := contentionRow{n: senders}

	// Telemetry is a pure observer, so attaching a registry here cannot
	// perturb the timing the experiment measures.
	reg := telemetry.New()
	n, buf, retries, err := ShareDevice(senders, messages, size, reg)
	if err != nil {
		return out, err
	}
	// Verify protection: each sender's device page holds its own data.
	for i := 0; i < senders; i++ {
		want := workload.Payload(size, byte(i+1))
		got := buf.Bytes(i*addr.PageSize, size)
		for j := range want {
			if got[j] != want[j] {
				return out, fmt.Errorf("sender %d data corrupted at byte %d", i, j)
			}
		}
	}

	ks := n.Kernel.Stats()
	out.us = n.Costs.Micros(n.Clock.Now())
	for _, r := range retries {
		out.retries += r
	}
	out.invals = ks.Invals
	out.switches = ks.ContextSwitches
	out.perMsg = out.us / float64(senders*messages)
	lat := reg.Histogram("udma_xfer_latency_cycles", telemetry.L("node", "0"))
	out.p50us = n.Costs.Micros(sim.Cycles(lat.Quantile(0.5)))
	out.p99us = n.Costs.Micros(sim.Cycles(lat.Quantile(0.99)))
	out.p999us = n.Costs.Micros(sim.Cycles(lat.Quantile(0.999)))
	return out, nil
}

// ShareDevice runs senders time-sliced processes "sender<i>" on one
// node, each sending messages × size bytes to its own page of one
// buffer device, and returns the node (its kernel shut down), the device
// and each process's initiation retries. reg, when non-nil, receives
// the node's telemetry. It drives e7 and shrimpsim's share and
// contention scenarios.
func ShareDevice(senders, messages, size int, reg *telemetry.Registry) (*machine.Node, *device.Buffer, []uint64, error) {
	n := machine.New(0, machine.Config{
		RAMFrames: 64 + senders*2,
		Kernel:    kernel.Config{Quantum: 2000},
		Metrics:   reg,
	})
	buf := device.NewBuffer("buf", uint32(senders+1), 4, 0)
	n.AttachDevice(buf, 0)
	defer n.Kernel.Shutdown()

	errs := make([]error, senders)
	retries := make([]uint64, senders)
	for i := 0; i < senders; i++ {
		s := workload.Sender{Dev: buf, Size: size, Seed: byte(i + 1), Messages: messages,
			Offsets: []uint32{uint32(i) << addr.PageShift}}
		n.Kernel.Spawn(fmt.Sprintf("sender%d", i), func(p *kernel.Proc) {
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
			return nil, nil, nil, fmt.Errorf("sender %d: %w", i, err)
		}
	}
	return n, buf, retries, nil
}
