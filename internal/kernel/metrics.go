package kernel

import (
	"fmt"

	"ioctopus/internal/metrics"
)

// RegisterMetrics wires per-core execution telemetry into a registry
// under "core<i>": accumulated busy time up to the snapshot instant (a
// gauge, since ResetBusy rewinds it at measurement-window edges) and
// run-queue depth.
func (k *Kernel) RegisterMetrics(r metrics.Registrar) {
	for _, c := range k.cores {
		c := c
		sc := r.Scope(fmt.Sprintf("core%d", c.id))
		sc.Gauge("busy_seconds", func() float64 { return c.BusyTime().Seconds() })
		sc.Gauge("queue_depth", func() float64 { return float64(c.queue.Len()) })
	}
}
