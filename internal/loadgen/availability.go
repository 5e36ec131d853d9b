package loadgen

import (
	"fmt"

	"shrimp/internal/cluster"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
)

// Availability readout for the chaos regime: the driver half that
// tracks cluster.CrashPlan outages (syncCrashState, inDown) and the
// post-trial analysis that turns the per-node delivery time series into
// goodput-dip depth/width and time-to-recover per crash (computeDips).

// syncCrashState mirrors the cluster's crash state into the driver at a
// lockstep barrier. A node observed newly down retracts its window
// publication (its exported frames died with it; the respawned receiver
// will export fresh ones); a node observed newly up gets its serving
// complement respawned, resuming from the host-memory progress state
// (queues, nextArr, lastSeq). The crash-event copy refreshed here is
// what servers read mid-window to attribute sojourns to outages.
func (dr *Driver) syncCrashState() {
	for i := range dr.nodes {
		isDown := dr.cl.NodeDown(i)
		switch {
		case isDown && !dr.down[i]:
			dr.down[i] = true
			dr.nodes[i].pendingPfns = nil
			dr.published[i] = false
		case !isDown && dr.down[i]:
			dr.down[i] = false
			dr.respawns++
			dr.spawnNode(i)
		}
	}
	dr.spans = dr.cl.CrashEvents()
}

// inDown reports whether simulated time `at` falls inside any crash
// span (open spans extend to forever). Servers call it mid-window; the
// spans slice is written only at barriers, so the read is race-free and
// identical at every worker count.
func (dr *Driver) inDown(at sim.Cycles) bool {
	for i := range dr.spans {
		ev := &dr.spans[i]
		if at >= ev.DownAt && (ev.UpAt == 0 || at < ev.UpAt) {
			return true
		}
	}
	return false
}

// republishFlowEntries rewrites the churn-mode NIPT entries aimed at
// node r's freshly exported window after a reboot. Runs at a barrier in
// flow order, like the initial publishFlowEntries.
func (dr *Driver) republishFlowEntries(r int) error {
	pfns := dr.windows[r]
	for f, fl := range dr.Plan.Flows {
		if fl.Dst != r {
			continue
		}
		e := nic.NIPTEntry{Valid: true, DestNode: fl.Dst, DestPFN: pfns[f%len(pfns)]}
		if err := dr.cl.NICs[fl.Src].SetNIPT(uint32(f), e); err != nil {
			return fmt.Errorf("loadgen: republish flow %d entry on node %d: %w", f, fl.Src, err)
		}
	}
	return nil
}

// Dip is one crash's availability signature in the delivery time
// series: how deep cluster goodput fell during the outage and how long
// the system took to deliver again after the reboot.
type Dip struct {
	Node   int
	DownAt sim.Cycles
	UpAt   sim.Cycles
	// Depth is 1 − (minimum per-bucket delivery rate inside the outage)
	// ÷ (whole-trial mean rate), clamped to [0,1]: 1.0 means delivery
	// stopped entirely for at least one sample bucket.
	Depth float64
	// RecoverAt is the end of the first sample bucket after the reboot
	// in which anything was delivered (0 = never recovered — e17 treats
	// that as failure).
	RecoverAt sim.Cycles
	// Width is RecoverAt − DownAt: outage plus recovery tail.
	Width sim.Cycles
}

// computeDips buckets every node's cumulative-delivery samples into
// sampleEvery-wide bins and reads each completed crash event's dip out
// of the aggregate curve. Open events (node still down at trial end)
// are skipped.
func computeDips(events []cluster.CrashEvent, samples [][]Sample,
	delivered int, elapsed sim.Cycles) []Dip {
	if len(events) == 0 || elapsed <= 0 {
		return nil
	}
	// Per-bucket cluster-wide deliveries from the per-node cumulative
	// Done series.
	buckets := make(map[sim.Cycles]int)
	var lastBucket sim.Cycles
	for _, series := range samples {
		prev := 0
		for _, sm := range series {
			b := sm.At / sampleEvery
			buckets[b] += sm.Done - prev
			prev = sm.Done
			if b > lastBucket {
				lastBucket = b
			}
		}
	}
	baseline := float64(delivered) * float64(sampleEvery) / float64(elapsed)
	dips := make([]Dip, 0, len(events))
	for _, ev := range events {
		if ev.UpAt == 0 {
			continue
		}
		d := Dip{Node: ev.Node, DownAt: ev.DownAt, UpAt: ev.UpAt}
		if baseline > 0 {
			minRate := -1
			for b := ev.DownAt / sampleEvery; b <= ev.UpAt/sampleEvery; b++ {
				if r := buckets[b]; minRate < 0 || r < minRate {
					minRate = r
				}
			}
			if minRate >= 0 {
				d.Depth = 1 - float64(minRate)/baseline
				if d.Depth < 0 {
					d.Depth = 0
				}
				if d.Depth > 1 {
					d.Depth = 1
				}
			}
		}
		for b := ev.UpAt / sampleEvery; b <= lastBucket; b++ {
			if buckets[b] > 0 {
				d.RecoverAt = (b + 1) * sampleEvery
				d.Width = d.RecoverAt - ev.DownAt
				break
			}
		}
		dips = append(dips, d)
	}
	return dips
}
