// Package kernel models the operating system layer the paper modifies:
// cores that execute work run-to-completion (threads, softirqs and
// deferred work FIFO-share a core), kernel threads with affinity, the
// scheduler's thread migration (sched_setaffinity) with migration hooks
// — the notification path that drives ARFS and IOctoRFS updates — and
// NUMA-aware memory allocation.
package kernel

import (
	"fmt"
	"time"

	"ioctopus/internal/memsys"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Params are OS cost constants.
type Params struct {
	// IRQEntry is the cost of taking a hardware interrupt.
	IRQEntry time.Duration
	// ContextSwitch is the cost of a thread context switch (charged on
	// wakeups that preempt and on migrations).
	ContextSwitch time.Duration
	// WakeupLatency is scheduling delay from wake to run when the
	// target core is idle.
	WakeupLatency time.Duration
}

// DefaultParams returns calibrated defaults.
func DefaultParams() Params {
	return Params{
		IRQEntry:      300 * time.Nanosecond,
		ContextSwitch: 1200 * time.Nanosecond,
		WakeupLatency: 500 * time.Nanosecond,
	}
}

// Kernel is the OS instance of one simulated host.
type Kernel struct {
	eng    *sim.Engine
	topo   *topology.Server
	mem    *memsys.System
	params Params
	cores  []*Core

	migrateHooks []func(t *Thread, from, to topology.CoreID)
	nextTID      int
}

// New boots a kernel on the given hardware.
func New(e *sim.Engine, topo *topology.Server, mem *memsys.System, params Params) *Kernel {
	k := &Kernel{eng: e, topo: topo, mem: mem, params: params}
	for i := 0; i < topo.NumCores(); i++ {
		c := &Core{
			k:    k,
			id:   topology.CoreID(i),
			node: topo.NodeOf(topology.CoreID(i)),
		}
		c.queue = sim.NewQueue[coreWork](e, 0)
		k.cores = append(k.cores, c)
		c.start()
	}
	return k
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Memory returns the host memory system.
func (k *Kernel) Memory() *memsys.System { return k.mem }

// Topology returns the hardware description.
func (k *Kernel) Topology() *topology.Server { return k.topo }

// Params returns the OS cost constants.
func (k *Kernel) Params() Params { return k.params }

// Core returns a core handle.
func (k *Kernel) Core(id topology.CoreID) *Core {
	if int(id) < 0 || int(id) >= len(k.cores) {
		panic(fmt.Sprintf("kernel: no core %d", id))
	}
	return k.cores[id]
}

// NumCores returns the core count.
func (k *Kernel) NumCores() int { return len(k.cores) }

// Alloc allocates a buffer on the given NUMA node (the first-touch /
// local allocation policy production kernels use, §2.1).
func (k *Kernel) Alloc(name string, node topology.NodeID, size int64) *memsys.Buffer {
	return k.mem.NewBuffer(name, node, size)
}

// OnMigrate registers a hook invoked after a thread migrates between
// cores; the network stack uses it for the ARFS flow-steering callback.
func (k *Kernel) OnMigrate(hook func(t *Thread, from, to topology.CoreID)) {
	k.migrateHooks = append(k.migrateHooks, hook)
}

// coreWork is one unit of work on a core's run queue. run executes when
// the core picks it up and returns how long the core is occupied; done
// (optional) fires when that time has elapsed.
type coreWork struct {
	name string
	run  func() time.Duration
	done func()
}

// Core is one CPU core: a FIFO run queue consumed run-to-completion.
// Interleaving threads, softirq and worker items by FIFO approximates
// the preemptive scheduler closely enough for throughput accounting
// while keeping the model deterministic.
//
// A core is not a process: its dispatch loop is a pair of engine
// callbacks (wake and finish) driven by two flags, so running an item
// costs engine events only, never a goroutine handoff.
type Core struct {
	k     *Kernel
	id    topology.CoreID
	node  topology.NodeID
	queue *sim.Queue[coreWork]
	// busy is charged with an item's whole duration when it starts;
	// busyEnd is when the in-flight item completes, so readers can take
	// back the part that has not elapsed yet.
	busy    time.Duration
	busyEnd sim.Time

	curDone func() // the in-flight item's done, fired by finish
	idle    bool   // no item in flight: the next put must wake the core
	waking  bool   // a wake event is already scheduled
	// Cached method values, so scheduling a wake or a completion
	// allocates nothing.
	wakeFn, finishFn func()
}

// ID returns the core id.
func (c *Core) ID() topology.CoreID { return c.id }

// Node returns the core's NUMA node.
func (c *Core) Node() topology.NodeID { return c.node }

// BusyTime returns the execution time accumulated up to now: an item
// in flight counts only for the part of it that has elapsed, so busy
// time never exceeds elapsed time.
func (c *Core) BusyTime() time.Duration { return c.busy - c.inFlight() }

// ResetBusy starts a new busy-time window (measurement windows). The
// unelapsed remainder of an item in flight belongs to the new window.
func (c *Core) ResetBusy() { c.busy = c.inFlight() }

// inFlight is the part of the running item's duration still ahead.
func (c *Core) inFlight() time.Duration {
	if now := c.k.eng.Now(); c.busyEnd > now {
		return c.busyEnd.Sub(now)
	}
	return 0
}

// QueueLen returns the number of work items waiting.
func (c *Core) QueueLen() int { return c.queue.Len() }

// start arms the core's dispatch state machine. The start event acts
// as the first wake, so work submitted before the engine runs begins at
// time zero. From then on the schedule is: one wake per idle→busy edge,
// one completion event per item, and each item's done at +0 after it.
func (c *Core) start() {
	c.wakeFn, c.finishFn = c.wake, c.finish
	c.idle, c.waking = true, true
	c.k.eng.After(0, c.wakeFn)
}

// put enqueues one work item, waking the core if it is idle. Submit,
// IRQLine.Raise and the Poller's resubmission all come through here.
func (c *Core) put(w coreWork) {
	c.queue.ForcePut(w)
	if c.idle && !c.waking {
		c.waking = true
		c.k.eng.After(0, c.wakeFn)
	}
}

func (c *Core) wake() {
	c.waking = false
	c.next()
}

// finish retires the in-flight item: its done fires from its own
// zero-delay event (so it can resume a thread without nesting inside
// the dispatch), and the next queued item starts in this callback.
func (c *Core) finish() {
	if c.curDone != nil {
		c.k.eng.After(0, c.curDone)
	}
	c.next()
}

// next runs the head item, or marks the core idle if there is none.
// The core is busy before run is called, so work that run submits to
// this core queues behind it instead of scheduling a wake.
func (c *Core) next() {
	w, ok := c.queue.TryGet()
	if !ok {
		c.idle, c.curDone = true, nil
		return
	}
	c.idle, c.curDone = false, w.done
	d := w.run()
	if d < 0 {
		d = 0
	}
	c.busy += d
	c.busyEnd = c.k.eng.Now().Add(d)
	c.k.eng.After(d, c.finishFn)
}

// Submit enqueues work whose duration is computed when it starts
// running (so memory-system charges happen at execution time). done
// fires when it completes.
func (c *Core) Submit(name string, run func() time.Duration, done func()) {
	c.put(coreWork{name: name, run: run, done: done})
}

// SubmitFixed enqueues work of a known duration.
func (c *Core) SubmitFixed(name string, d time.Duration, done func()) {
	c.Submit(name, func() time.Duration { return d }, done)
}

// Stall occupies the core with non-preemptible busywork for the given
// duration: queued work items and newly raised interrupts wait behind
// it, exactly as behind any other run-to-completion item. Fault
// injection uses it to model firmware-level stalls (SMIs, thermal
// throttling events) and — with a long duration — a core going offline.
func (c *Core) Stall(d time.Duration) {
	if d <= 0 {
		return
	}
	c.SubmitFixed("fault:stall", d, nil)
}

// IRQ delivers a hardware interrupt to this core: the handler runs at
// queue-head priority after the IRQ entry cost. Interrupts preempt in
// real kernels; FIFO placement is close enough at the interrupt rates
// the model produces (coalesced NAPI).
func (c *Core) IRQ(name string, handler func() time.Duration) {
	c.Submit("irq:"+name, func() time.Duration {
		return c.k.params.IRQEntry + handler()
	}, nil)
}

// IRQLine is a prepared interrupt vector: the name string and the
// entry-cost wrapper are built once when the driver wires its queues,
// so raising an interrupt on the hot path allocates nothing. This is
// the MSI-X vector table analogue of Core.IRQ.
type IRQLine struct {
	c       *Core
	name    string
	handler func() time.Duration
	run     func() time.Duration
}

// NewIRQLine prepares an interrupt vector targeting this core.
func (c *Core) NewIRQLine(name string, handler func() time.Duration) *IRQLine {
	l := &IRQLine{c: c, name: "irq:" + name, handler: handler}
	l.run = func() time.Duration { return c.k.params.IRQEntry + l.handler() }
	return l
}

// Raise delivers the interrupt (equivalent to Core.IRQ, allocation-free).
func (l *IRQLine) Raise() {
	l.c.put(coreWork{name: l.name, run: l.run})
}
