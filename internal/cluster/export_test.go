package cluster

import (
	"shrimp/internal/device"
	"shrimp/internal/sim"
)

// NextRunnable is the skip-ahead oracle RunHooks consults after a round
// without progress.
func (c *Cluster) NextRunnable(after sim.Cycles) sim.Cycles { return c.nextRunnable(after) }

// Faulty returns node i's injection wrapper (nil when Config.Inject is
// off).
func (c *Cluster) Faulty(i int) *device.Faulty { return c.faulty[i] }
