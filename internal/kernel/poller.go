package kernel

import (
	"time"

	"ioctopus/internal/topology"
)

// Poller is a busy-poll loop pinned to a core: the DPDK-style PMD
// thread. Each iteration runs through the core's ordinary dispatch
// loop, so the spin time lands in the core's BusyTime integral — a
// busy-polling core reads as 100% occupied, which keeps the
// CPU-efficiency figures honest — and any other work submitted to the
// core (IRQs for queues still in interrupt mode, stalls from fault
// injection) FIFO-interleaves with the poll iterations instead of
// starving.
//
// The loop self-resubmits through the iteration's done callback rather
// than running as a Thread. On an otherwise idle core each iteration
// costs three engine events: the completion, the done at +0 that
// resubmits, and the wake that the resubmission's idle→busy edge
// schedules. All are allocation-free: coreWork is a value type and the
// run/resubmit closures are built once here.
type Poller struct {
	c       *Core
	name    string
	body    func() time.Duration
	run     func() time.Duration // cached dispatch wrapper
	resub   func()               // cached self-resubmission
	stopped bool

	// wedgeFor is consumed by the next iteration: instead of polling,
	// the loop burns the core for that long — a hung register read or
	// firmware doorbell that never returns — then resumes. Set by
	// Wedge (fault injection).
	wedgeFor   time.Duration
	iterations uint64
}

// StartPoller pins a busy-poll loop to this core. body runs once per
// iteration and returns how long the iteration occupied the core (the
// fixed poll cost plus whatever work the burst did); it must be
// positive, or the loop would spin at a single instant of simulated
// time. The loop runs until Stop.
func (c *Core) StartPoller(name string, body func() time.Duration) *Poller {
	p := &Poller{c: c, name: "pmd:" + name, body: body}
	p.run = func() time.Duration {
		if p.stopped {
			return 0
		}
		if w := p.wedgeFor; w > 0 {
			// One pathologically long iteration that never reaches the
			// rings: the core reads as busy (it is — spinning on a dead
			// device) but Iterations stays flat, which is exactly the
			// liveness signal a driver watchdog keys on.
			p.wedgeFor = 0
			return w
		}
		d := p.body()
		if d <= 0 {
			panic("kernel: poller iteration must consume time")
		}
		p.iterations++
		return d
	}
	p.resub = func() {
		if p.stopped {
			return
		}
		c.put(coreWork{name: p.name, run: p.run, done: p.resub})
	}
	p.resub()
	return p
}

// Wedge hangs the poll loop for d starting at its next dispatch: the
// core burns the whole duration in a single iteration without touching
// the rings, then the loop resumes on its own. Subsequent wedges before
// dispatch accumulate.
func (p *Poller) Wedge(d time.Duration) {
	if d <= 0 {
		return
	}
	p.wedgeFor += d
}

// Iterations counts completed (non-wedged) poll iterations — the
// liveness counter a driver watchdog samples to detect a wedged loop.
func (p *Poller) Iterations() uint64 { return p.iterations }

// Node is the NUMA node of the core the loop is pinned to.
func (p *Poller) Node() topology.NodeID { return p.c.node }

// Stop ends the loop: the current iteration (if one is queued or
// running) completes at zero further cost and nothing is resubmitted.
func (p *Poller) Stop() { p.stopped = true }

// Stopped reports whether the poller has been stopped.
func (p *Poller) Stopped() bool { return p.stopped }
