package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30*Nanosecond, func() { order = append(order, 3) })
	e.After(10*Nanosecond, func() { order = append(order, 1) })
	e.After(20*Nanosecond, func() { order = append(order, 2) })
	e.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != Time(30) {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(100), func() { order = append(order, i) })
	}
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.After(10*Nanosecond, func() { fired++ })
	e.After(100*Nanosecond, func() { fired++ })
	e.Run(Time(50))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != Time(50) {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
	e.RunUntilIdle()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(Time(5), func() {})
	})
	e.RunUntilIdle()
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 5 {
			e.After(Nanosecond, rec)
		}
	}
	e.After(0, rec)
	e.RunUntilIdle()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if e.Now() != Time(4) {
		t.Fatalf("clock = %v, want 4", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(10*Nanosecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report cancellation")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.RunUntilIdle()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestTimerStopAmongOthers(t *testing.T) {
	e := NewEngine()
	var fired []int
	timers := make([]Timer, 5)
	for i := 0; i < 5; i++ {
		i := i
		timers[i] = e.After(time.Duration(i+1)*Nanosecond, func() { fired = append(fired, i) })
	}
	timers[2].Stop()
	e.RunUntilIdle()
	want := []int{0, 1, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(time.Duration(i)*Nanosecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.RunUntilIdle()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (Stop should halt the loop)", count)
	}
}

func TestEngineMaxEventsGuard(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 10
	var loop func()
	loop = func() { e.After(Nanosecond, loop) }
	e.After(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("MaxEvents guard did not trip")
		}
	}()
	e.RunUntilIdle()
}

// TestScheduleDispatchAllocFree guards the free-list design: once the
// slot arena and heap have grown to steady-state size, scheduling and
// dispatching events allocates nothing.
func TestScheduleDispatchAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the arena and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.After(time.Duration(i)*Nanosecond, fn)
	}
	e.RunUntilIdle()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			e.After(time.Duration(i)*Nanosecond, fn)
		}
		e.RunUntilIdle()
	})
	if allocs > 0.5 {
		t.Fatalf("schedule+dispatch allocates %.1f allocs/run, want 0", allocs)
	}
}

// TestTimerStaleAfterFire: a Timer held past its event's dispatch must
// report not-pending and refuse to Stop, even after its slot has been
// recycled for a newer event.
func TestTimerStaleAfterFire(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.After(Nanosecond, func() { fired++ })
	e.RunUntilIdle()
	// Recycle the slot for a fresh event.
	tm2 := e.After(Nanosecond, func() { fired++ })
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Stop() {
		t.Fatal("Stop on a fired timer must report false")
	}
	if !tm2.Pending() {
		t.Fatal("recycled slot's new timer should be pending")
	}
	e.RunUntilIdle()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// TestRunBoundWithCancelledHead: a cancelled entry at the head of the
// heap must not let Run dispatch a live event past its bound.
func TestRunBoundWithCancelledHead(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(10*Nanosecond, func() { t.Error("cancelled event fired") })
	e.After(100*Nanosecond, func() { fired = true })
	tm.Stop()
	e.Run(Time(50))
	if fired {
		t.Fatal("Run dispatched an event beyond its bound")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntilIdle()
	if !fired {
		t.Fatal("live event never fired")
	}
}

// TestPendingCountExcludesCancelled: Engine.Pending counts live events
// only, despite lazy heap deletion.
func TestPendingCountExcludesCancelled(t *testing.T) {
	e := NewEngine()
	var tms []Timer
	for i := 0; i < 10; i++ {
		tms = append(tms, e.After(time.Duration(i+1)*Nanosecond, func() {}))
	}
	for i := 0; i < 4; i++ {
		tms[i].Stop()
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", e.Pending())
	}
	e.RunUntilIdle()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
}

// TestHeapOrderRandomized cross-checks the 4-ary heap against sorted
// order on a large randomized schedule, including cancellations.
func TestHeapOrderRandomized(t *testing.T) {
	e := NewEngine()
	g := NewRNG(7)
	type ev struct {
		at  Time
		seq int
	}
	var want []ev
	var got []ev
	seq := 0
	for i := 0; i < 2000; i++ {
		at := Time(g.Intn(500))
		s := seq
		seq++
		tm := e.At(at, func() { got = append(got, ev{at, s}) })
		if g.Intn(5) == 0 {
			tm.Stop()
			continue
		}
		want = append(want, ev{at, s})
	}
	// Stable sort by (at, schedule order) = the FIFO tie-break contract.
	for i := 1; i < len(want); i++ {
		for j := i; j > 0 && (want[j].at < want[j-1].at); j-- {
			want[j], want[j-1] = want[j-1], want[j]
		}
	}
	e.RunUntilIdle()
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestLaneBoundedInLongCascade: a long same-instant cascade with a few
// events live at a time reuses the lane's consumed prefix instead of
// growing the lane with the cascade's length.
func TestLaneBoundedInLongCascade(t *testing.T) {
	e := NewEngine()
	left := 100000
	var hop func()
	hop = func() {
		if left > 0 {
			left--
			e.After(0, hop)
		}
	}
	for i := 0; i < 3; i++ {
		e.After(0, hop)
	}
	e.RunUntilIdle()
	if left != 0 || e.Now() != 0 {
		t.Fatalf("cascade left %d hops, clock %v", left, e.Now())
	}
	if c := cap(e.lane); c > 16 {
		t.Fatalf("lane capacity %d after a cascade with 3 live events", c)
	}
}

// refQueue is the reference model for TestDispatchOrderMatchesReference:
// a plain list scanned for the minimum (at, sub, seq) live entry at
// every step, with the same Run/Stop contract as Engine. sub is the
// clock value at the scheduling call; the engine keys on (at, seq)
// alone, and the cross-check proves the two orders agree.
type refQueue struct {
	now     Time
	seq     uint64
	evs     []*refEvent
	stopped bool
}

type refEvent struct {
	at, sub Time
	seq     uint64
	fn      func()
	live    bool
}

func (q *refQueue) at(t Time, fn func()) func() bool {
	q.seq++
	ev := &refEvent{at: t, sub: q.now, seq: q.seq, fn: fn, live: true}
	q.evs = append(q.evs, ev)
	return func() bool {
		was := ev.live
		ev.live = false
		return was
	}
}

func (q *refQueue) pending() int {
	n := 0
	for _, ev := range q.evs {
		if ev.live {
			n++
		}
	}
	return n
}

func (q *refQueue) run(until Time) {
	q.stopped = false
	for !q.stopped {
		var next *refEvent
		for _, ev := range q.evs {
			if !ev.live {
				continue
			}
			if next == nil || ev.at < next.at ||
				ev.at == next.at && (ev.sub < next.sub || ev.sub == next.sub && ev.seq < next.seq) {
				next = ev
			}
		}
		if next == nil || next.at > until {
			break
		}
		next.live = false
		q.now = next.at
		next.fn()
	}
	if !q.stopped && until > q.now {
		q.now = until
	}
}

// scheduler is the surface the randomized ordering workload drives, so
// the same workload runs on Engine and on refQueue.
type scheduler struct {
	now  func() Time
	at   func(t Time, fn func()) (stop func() bool)
	halt func()
}

// nestedWorkload seeds a random schedule whose callbacks log their id,
// schedule children at +0 (the ready lane) and at +d (the heap), cancel
// random recent timers (lane entries among them) and sometimes stop the
// run mid-instant. Every RNG draw happens inside a callback, so two
// queues consume the stream identically exactly when they dispatch in
// the same order. The log records dispatches as ids and cancellations
// as -1-id with a trailing 1 (stopped) or 0 (already gone).
func nestedWorkload(s scheduler, seed int64, log *[]int) (laneStops, halts *int) {
	rng := NewRNG(seed)
	laneStops, halts = new(int), new(int)
	type handle struct {
		id    int
		stop  func() bool
		atNow bool
	}
	var handles []handle
	id := 0
	var spawn func(t Time)
	spawn = func(t Time) {
		me := id
		id++
		handles = append(handles, handle{me, s.at(t, func() {
			*log = append(*log, me)
			for k := rng.Intn(4); k > 0 && id < 4000; k-- {
				d := Time(0)
				if rng.Intn(2) == 0 {
					d = Time(1 + rng.Intn(20))
				}
				spawn(s.now() + d)
			}
			if rng.Intn(3) == 0 {
				h := handles[len(handles)-1-rng.Intn(min(8, len(handles)))]
				ok := h.stop()
				if ok && h.atNow {
					*laneStops++
				}
				res := 0
				if ok {
					res = 1
				}
				*log = append(*log, -1-h.id, res)
			}
			if rng.Intn(40) == 0 {
				*halts++
				s.halt()
			}
		}), t == s.now()})
	}
	for i := 0; i < 16; i++ {
		spawn(Time(rng.Intn(30)))
	}
	return laneStops, halts
}

// TestDispatchOrderMatchesReference cross-checks the lane-plus-heap
// queue, keyed on (at, seq), against a reference that sorts by
// (at, sub, seq), on schedules that nest +0 and +d events, cancel
// pending timers (lane entries included) and stop runs mid-instant
// before resuming them.
func TestDispatchOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		e := NewEngine()
		var got []int
		laneStops, halts := nestedWorkload(scheduler{
			now:  e.Now,
			at:   func(at Time, fn func()) func() bool { return e.At(at, fn).Stop },
			halt: e.Stop,
		}, seed, &got)
		ref := &refQueue{}
		var want []int
		nestedWorkload(scheduler{
			now:  func() Time { return ref.now },
			at:   ref.at,
			halt: func() { ref.stopped = true },
		}, seed, &want)

		for until := Time(0); e.Pending() > 0 || ref.pending() > 0; until += 7 {
			if until > 1<<20 { // children land at most 20 ns out, 4000 at most
				t.Fatalf("seed %d: queues still hold %d / %d events at %v", seed, e.Pending(), ref.pending(), until)
			}
			e.Run(until)
			ref.run(until)
			if e.Now() != ref.now || e.Pending() != ref.pending() {
				t.Fatalf("seed %d, Run(%v): now %v pending %d, reference now %v pending %d",
					seed, until, e.Now(), e.Pending(), ref.now, ref.pending())
			}
			if live := e.ArenaSlots() - e.FreeSlots(); live != e.Pending() {
				t.Fatalf("seed %d, Run(%v): %d arena slots in use, %d events pending", seed, until, live, e.Pending())
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: log entry %d = %d, reference %d", seed, i, got[i], want[i])
			}
		}
		if *laneStops == 0 || *halts == 0 {
			t.Fatalf("seed %d: workload cancelled %d lane entries and stopped %d times; want both exercised",
				seed, *laneStops, *halts)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(100)
	if tm.Add(50*Nanosecond) != Time(150) {
		t.Error("Add failed")
	}
	if tm.Add(-200*Nanosecond) != tm {
		t.Error("negative Add should clamp to t")
	}
	if tm.Sub(Time(40)) != 60*Nanosecond {
		t.Error("Sub failed")
	}
	if Time(2_500_000_000).Seconds() != 2.5 {
		t.Error("Seconds failed")
	}
}

func TestTimeAddMonotonic(t *testing.T) {
	// Property: Add never moves time backwards for non-negative d.
	f := func(base int64, d int64) bool {
		if base < 0 {
			base = -base
		}
		if d < 0 {
			d = -d
		}
		tm := Time(base)
		return tm.Add(time.Duration(d)) >= tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		g := NewRNG(42)
		var out []int
		for i := 0; i < 100; i++ {
			i := i
			e.After(g.Exp(100*Nanosecond), func() { out = append(out, i) })
		}
		e.RunUntilIdle()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestTimerSlotReclaim: under heavy arm/cancel churn every event slot
// returns to the free list once the engine runs idle — stopped timers
// are lazily reclaimed when their heap entry surfaces, fired ones
// immediately, and neither path leaks arena slots.
func TestTimerSlotReclaim(t *testing.T) {
	e := NewEngine()
	fired := 0
	for round := 0; round < 50; round++ {
		timers := make([]Timer, 0, 40)
		for i := 0; i < 40; i++ {
			timers = append(timers, e.After(time.Duration(i+1)*Microsecond, func() { fired++ }))
		}
		// Cancel every other timer, some twice (double Stop must be a
		// no-op, not a double free).
		for i := 0; i < len(timers); i += 2 {
			if !timers[i].Stop() {
				t.Fatalf("round %d: live timer %d refused to stop", round, i)
			}
			if timers[i].Stop() {
				t.Fatal("second Stop on a dead timer reported success")
			}
		}
		e.RunUntilIdle()
	}
	if fired != 50*20 {
		t.Fatalf("%d timers fired, want %d", fired, 50*20)
	}
	if free, total := e.FreeSlots(), e.ArenaSlots(); free != total {
		t.Fatalf("slot leak: %d of %d arena slots free after idle", free, total)
	}
}

// BenchmarkEngineDispatch prices one event through the engine's queue:
// eight self-rescheduling chains run over 34 far-future timers. The
// zero-delay chains reschedule at +0, the ready lane's case; the timed
// chains reschedule at +1 ns, so each event sifts through a 42-entry
// heap.
func BenchmarkEngineDispatch(b *testing.B) {
	for _, bc := range []struct {
		name  string
		delay time.Duration
	}{{"zero-delay", 0}, {"timed", Nanosecond}} {
		b.Run(bc.name, func(b *testing.B) {
			const chains, timers = 8, 34
			e := NewEngine()
			far := Time(1) << 62
			for i := 0; i < timers; i++ {
				e.At(far+Time(i), func() {})
			}
			left, active := 0, 0
			var chain func()
			chain = func() {
				if left > 0 {
					left--
					e.After(bc.delay, chain)
					return
				}
				if active--; active == 0 {
					e.Stop() // leave the clock where the chains ended
				}
			}
			run := func(n int) {
				left, active = n, chains
				for i := 0; i < chains; i++ {
					e.After(bc.delay, chain)
				}
				e.Run(far - 1)
			}
			run(1024) // grow the arena, heap and lane to steady state
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}
