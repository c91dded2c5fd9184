package kernel

import (
	"testing"
	"time"

	"ioctopus/internal/interconnect"
	"ioctopus/internal/memsys"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

func newKernel(t testing.TB) (*sim.Engine, *Kernel) {
	t.Helper()
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	ic := interconnect.New(e, srv)
	mem := memsys.New(e, srv, ic, memsys.DefaultParams())
	return e, New(e, srv, mem, DefaultParams())
}

func TestSpawnAndExec(t *testing.T) {
	e, k := newKernel(t)
	var end sim.Time
	th := k.Spawn("worker", 3, func(t *Thread) {
		t.Exec(100 * time.Microsecond)
		end = t.Now()
	})
	e.RunUntilIdle()
	if end != sim.Time(100*time.Microsecond) {
		t.Fatalf("end = %v, want 100us", end)
	}
	if th.CPUTime() != 100*time.Microsecond {
		t.Fatalf("cpu time = %v", th.CPUTime())
	}
	if k.Core(3).BusyTime() != 100*time.Microsecond {
		t.Fatalf("core busy = %v", k.Core(3).BusyTime())
	}
	e.Drain()
}

func TestCoreFIFOSharing(t *testing.T) {
	e, k := newKernel(t)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		k.Spawn("w", 0, func(t *Thread) {
			t.Exec(50 * time.Microsecond)
			ends = append(ends, t.Now())
		})
	}
	e.RunUntilIdle()
	if len(ends) != 2 {
		t.Fatal("threads did not finish")
	}
	if ends[0] != sim.Time(50*time.Microsecond) || ends[1] != sim.Time(100*time.Microsecond) {
		t.Fatalf("ends = %v, want FIFO serialization on one core", ends)
	}
	e.Drain()
}

func TestThreadsOnDifferentCoresRunInParallel(t *testing.T) {
	e, k := newKernel(t)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		k.Spawn("w", topology.CoreID(i), func(t *Thread) {
			t.Exec(50 * time.Microsecond)
			ends = append(ends, t.Now())
		})
	}
	e.RunUntilIdle()
	for _, end := range ends {
		if end != sim.Time(50*time.Microsecond) {
			t.Fatalf("ends = %v, want parallel completion", ends)
		}
	}
	e.Drain()
}

func TestThreadNodeTracksCore(t *testing.T) {
	e, k := newKernel(t)
	var nodes []topology.NodeID
	th := k.Spawn("mover", 0, func(t *Thread) {
		nodes = append(nodes, t.Node())
		t.Sleep(time.Millisecond)
		nodes = append(nodes, t.Node())
	})
	e.After(500*time.Microsecond, func() { k.SetAffinity(th, 20) }) // core 20 is node 1
	e.RunUntilIdle()
	if nodes[0] != 0 || nodes[1] != 1 {
		t.Fatalf("nodes = %v, want [0 1]", nodes)
	}
	if th.Migrations() != 1 {
		t.Fatalf("migrations = %d", th.Migrations())
	}
	e.Drain()
}

func TestMigrationHookFires(t *testing.T) {
	e, k := newKernel(t)
	var hookFrom, hookTo topology.CoreID = -1, -1
	k.OnMigrate(func(t *Thread, from, to topology.CoreID) { hookFrom, hookTo = from, to })
	th := k.Spawn("mover", 2, func(t *Thread) { t.Sleep(time.Millisecond) })
	e.After(100*time.Microsecond, func() { k.SetAffinity(th, 17) })
	e.RunUntilIdle()
	if hookFrom != 2 || hookTo != 17 {
		t.Fatalf("hook saw %d->%d, want 2->17", hookFrom, hookTo)
	}
	e.Drain()
}

func TestSetAffinitySameCoreIsNoop(t *testing.T) {
	e, k := newKernel(t)
	fired := false
	k.OnMigrate(func(t *Thread, from, to topology.CoreID) { fired = true })
	th := k.Spawn("p", 5, func(t *Thread) { t.Sleep(time.Millisecond) })
	e.After(10*time.Microsecond, func() { k.SetAffinity(th, 5) })
	e.RunUntilIdle()
	if fired || th.Migrations() != 0 {
		t.Fatal("same-core SetAffinity should be a no-op")
	}
	e.Drain()
}

func TestExecFnPricesAtRunTime(t *testing.T) {
	e, k := newKernel(t)
	var priced sim.Time
	k.Spawn("a", 0, func(t *Thread) { t.Exec(100 * time.Microsecond) })
	k.Spawn("b", 0, func(t *Thread) {
		t.ExecFn(func() time.Duration {
			priced = t.Now() // must be when the core picks it up, not submit time
			return time.Microsecond
		})
	})
	e.RunUntilIdle()
	if priced < sim.Time(100*time.Microsecond) {
		t.Fatalf("cost function ran at %v, want after predecessor", priced)
	}
	e.Drain()
}

func TestIRQCostsEntryPlusHandler(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(0)
	c.IRQ("nic", func() time.Duration { return 700 * time.Nanosecond })
	e.RunUntilIdle()
	want := DefaultParams().IRQEntry + 700*time.Nanosecond
	if c.BusyTime() != want {
		t.Fatalf("busy = %v, want %v", c.BusyTime(), want)
	}
	e.Drain()
}

func TestSubmitFixedAndQueueLen(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(1)
	done := 0
	e.At(0, func() {
		c.SubmitFixed("a", time.Microsecond, func() { done++ })
		c.SubmitFixed("b", time.Microsecond, func() { done++ })
	})
	e.RunUntilIdle()
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	e.Drain()
}

func TestResetBusy(t *testing.T) {
	e, k := newKernel(t)
	k.Spawn("w", 0, func(t *Thread) { t.Exec(time.Millisecond) })
	e.RunUntilIdle()
	k.Core(0).ResetBusy()
	if k.Core(0).BusyTime() != 0 {
		t.Fatal("ResetBusy failed")
	}
	e.Drain()
}

// TestBusyTimeTracksElapsedTime: a saturated core reads busy for
// exactly the time that has elapsed, even with an item in flight at a
// ResetBusy and at the window's end, and never reads more.
func TestBusyTimeTracksElapsedTime(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(0)
	p := c.StartPoller("spin", func() time.Duration { return 3 * time.Microsecond })
	var windowStart sim.Time
	for at := sim.Time(0); at <= sim.Time(25*time.Microsecond); at += sim.Time(500 * time.Nanosecond) {
		e.At(at, func() {
			if busy, elapsed := c.BusyTime(), e.Now().Sub(windowStart); busy != elapsed {
				t.Errorf("at %v: busy %v, want elapsed %v", e.Now(), busy, elapsed)
			}
		})
	}
	e.Run(sim.Time(10 * time.Microsecond)) // mid-iteration: [9us, 12us)
	c.ResetBusy()
	windowStart = e.Now()
	e.Run(sim.Time(25 * time.Microsecond)) // mid-iteration: [24us, 27us)
	if got := c.BusyTime(); got != 15*time.Microsecond {
		t.Fatalf("busy over the window = %v, want exactly 15us", got)
	}
	p.Stop()
	e.Drain()
}

func TestAllocIsNodeHomed(t *testing.T) {
	e, k := newKernel(t)
	b := k.Alloc("buf", 1, 4096)
	if b.Home() != 1 {
		t.Fatalf("home = %d, want 1", b.Home())
	}
	e.Drain()
}

func TestMigrationChargesContextSwitch(t *testing.T) {
	e, k := newKernel(t)
	th := k.Spawn("p", 0, func(t *Thread) { t.Sleep(time.Millisecond) })
	e.After(time.Microsecond, func() { k.SetAffinity(th, 14) })
	e.RunUntilIdle()
	if k.Core(14).BusyTime() < DefaultParams().ContextSwitch {
		t.Fatalf("destination core busy = %v, want >= context switch", k.Core(14).BusyTime())
	}
	e.Drain()
}

// TestCoreFIFOAcrossEntryPoints: Submit, IRQLine.Raise and Stall all
// feed one FIFO run queue.
func TestCoreFIFOAcrossEntryPoints(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(2)
	var order []string
	var starts []sim.Time
	mark := func(name string, d time.Duration) func() time.Duration {
		return func() time.Duration {
			order = append(order, name)
			starts = append(starts, e.Now())
			return d
		}
	}
	irq := c.NewIRQLine("nic", mark("irq", 2*time.Microsecond))
	e.At(0, func() {
		c.Submit("a", mark("a", time.Microsecond), nil)
		irq.Raise()
		c.Stall(10 * time.Microsecond)
		c.Submit("b", mark("b", time.Microsecond), nil)
	})
	e.RunUntilIdle()
	entry := DefaultParams().IRQEntry
	wantStarts := []sim.Time{0, sim.Time(time.Microsecond), sim.Time(3*time.Microsecond + entry + 10*time.Microsecond)}
	if len(order) != 3 || order[0] != "a" || order[1] != "irq" || order[2] != "b" {
		t.Fatalf("order = %v, want [a irq b]", order)
	}
	for i, want := range wantStarts {
		if starts[i] != want {
			t.Fatalf("%s started at %v, want %v", order[i], starts[i], want)
		}
	}
	e.Drain()
}

// TestSubmitFromRunAndDone: work submitted by a running item queues
// behind it, and work submitted from a done callback starts when the
// core next frees up — neither runs early or is lost.
func TestSubmitFromRunAndDone(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(0)
	starts := map[string]sim.Time{}
	item := func(name string, d time.Duration, then func()) func() time.Duration {
		return func() time.Duration {
			starts[name] = e.Now()
			if then != nil {
				then()
			}
			return d
		}
	}
	e.At(0, func() {
		c.Submit("a", item("a", 4*time.Microsecond, func() {
			c.Submit("fromRun", item("fromRun", 2*time.Microsecond, nil), func() {
				c.Submit("fromDone", item("fromDone", time.Microsecond, nil), nil)
			})
		}), nil)
	})
	e.RunUntilIdle()
	want := map[string]sim.Time{
		"a":        0,
		"fromRun":  sim.Time(4 * time.Microsecond),
		"fromDone": sim.Time(6 * time.Microsecond),
	}
	for name, at := range want {
		if got, ok := starts[name]; !ok || got != at {
			t.Errorf("%s started at %v (ran=%v), want %v", name, got, ok, at)
		}
	}
	if got := c.BusyTime(); got != 7*time.Microsecond {
		t.Errorf("busy = %v, want 7us", got)
	}
	e.Drain()
}

// TestDoneFiresAtCompletionViaZeroDelayEvent: an item's done runs at
// its completion time but in an event of its own, after the completion
// has already started the next queued item.
func TestDoneFiresAtCompletionViaZeroDelayEvent(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(0)
	var doneAt, nextAt sim.Time
	var doneEvent, nextEvent uint64
	e.At(0, func() {
		c.SubmitFixed("a", 10*time.Microsecond, func() {
			doneAt, doneEvent = e.Now(), e.Executed
		})
		c.Submit("b", func() time.Duration {
			nextAt, nextEvent = e.Now(), e.Executed
			return time.Microsecond
		}, nil)
	})
	e.RunUntilIdle()
	if doneAt != sim.Time(10*time.Microsecond) || nextAt != doneAt {
		t.Fatalf("done at %v, next item at %v, want both at 10us", doneAt, nextAt)
	}
	if doneEvent != nextEvent+1 {
		t.Fatalf("done ran in event %d, next item in event %d: want done one event later", doneEvent, nextEvent)
	}
	e.Drain()
}

// TestOneWakePerIdleToBusyEdge counts engine events: a burst of
// submits to an idle core costs one wake plus one completion per item,
// however many items the burst holds.
func TestOneWakePerIdleToBusyEdge(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(0)
	e.RunUntilIdle() // every core's start event
	base := e.Executed
	e.At(e.Now(), func() { // 1 event
		for i := 0; i < 3; i++ {
			c.SubmitFixed("burst", time.Microsecond, nil)
		}
	}) // + 1 wake + 3 completions
	e.At(e.Now().Add(time.Millisecond), func() { // 1 event
		c.SubmitFixed("solo", time.Microsecond, nil)
		c.Stall(time.Microsecond)
	}) // + 1 wake + 2 completions
	e.RunUntilIdle()
	if got := e.Executed - base; got != 9 {
		t.Fatalf("executed %d events, want 9 (two submitting events, two wakes, five completions)", got)
	}
	e.Drain()
}

// TestPollerInterleavesWithIRQ: an interrupt raised mid-iteration runs
// as soon as that iteration completes, and the poll loop resumes after
// the handler.
func TestPollerInterleavesWithIRQ(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(0)
	var polls []sim.Time
	var irqAt sim.Time
	p := c.StartPoller("q0", func() time.Duration {
		polls = append(polls, e.Now())
		return time.Microsecond
	})
	irq := c.NewIRQLine("nic", func() time.Duration {
		irqAt = e.Now()
		return 2 * time.Microsecond
	})
	e.At(sim.Time(2500*time.Nanosecond), irq.Raise)
	e.Run(sim.Time(10 * time.Microsecond))
	p.Stop()
	e.RunUntilIdle()
	if irqAt != sim.Time(3*time.Microsecond) {
		t.Fatalf("irq handler ran at %v, want 3us (end of the running iteration)", irqAt)
	}
	resume := sim.Time(3*time.Microsecond + DefaultParams().IRQEntry + 2*time.Microsecond)
	if polls[3] != resume {
		t.Fatalf("fourth poll at %v, want %v (after the handler)", polls[3], resume)
	}
	e.Drain()
}

// TestPollerStopMidIteration: Stop during an iteration lets it finish
// and resubmits nothing, so the core goes idle and the engine drains.
func TestPollerStopMidIteration(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(0)
	p := c.StartPoller("q0", func() time.Duration { return time.Microsecond })
	e.At(sim.Time(2500*time.Nanosecond), p.Stop)
	e.RunUntilIdle()
	if p.Iterations() != 3 {
		t.Fatalf("iterations = %d, want 3", p.Iterations())
	}
	if c.BusyTime() != 3*time.Microsecond || e.Now() != sim.Time(3*time.Microsecond) {
		t.Fatalf("busy = %v, idle at %v; want 3us and 3us", c.BusyTime(), e.Now())
	}
	if !p.Stopped() || c.QueueLen() != 0 {
		t.Fatalf("stopped = %v, queue = %d", p.Stopped(), c.QueueLen())
	}
	e.Drain()
}

// BenchmarkCoreDispatch prices one work item through a core's dispatch
// state machine — wake, run, completion, done — with each item's done
// submitting the next, the busy-poll loop's shape. The steady state
// allocates nothing.
func BenchmarkCoreDispatch(b *testing.B) {
	e, k := newKernel(b)
	c := k.Core(0)
	run := func() time.Duration { return time.Microsecond }
	left := 1 // warm-up item: grows the run queue and event arena once
	var done func()
	done = func() {
		if left--; left > 0 {
			c.Submit("item", run, done)
		}
	}
	c.Submit("item", run, done)
	e.RunUntilIdle()
	left = b.N
	b.ReportAllocs()
	b.ResetTimer()
	c.Submit("item", run, done)
	e.RunUntilIdle()
	b.StopTimer()
	e.Drain()
}
