package sim

import (
	"runtime"
	"strings"
	"testing"
)

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wakeups []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Nanosecond)
			wakeups = append(wakeups, p.Now())
		}
	})
	e.RunUntilIdle()
	want := []Time{10, 20, 30}
	if len(wakeups) != 3 {
		t.Fatalf("wakeups = %v", wakeups)
	}
	for i := range want {
		if wakeups[i] != want[i] {
			t.Fatalf("wakeups = %v, want %v", wakeups, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Go("a", func(p *Proc) {
		log = append(log, "a0")
		p.Sleep(10 * Nanosecond)
		log = append(log, "a1")
		p.Sleep(20 * Nanosecond)
		log = append(log, "a2")
	})
	e.Go("b", func(p *Proc) {
		log = append(log, "b0")
		p.Sleep(15 * Nanosecond)
		log = append(log, "b1")
	})
	e.RunUntilIdle()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestProcSleepUntilPast(t *testing.T) {
	e := NewEngine()
	done := false
	e.Go("p", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		p.SleepUntil(Time(50)) // in the past: continue at current time
		if p.Now() != Time(100) {
			t.Errorf("now = %v, want 100", p.Now())
		}
		done = true
	})
	e.RunUntilIdle()
	if !done {
		t.Fatal("process did not finish")
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		if s.Waiters() != 3 {
			t.Errorf("waiters = %d, want 3", s.Waiters())
		}
		s.Broadcast()
	})
	e.RunUntilIdle()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestGateLatches(t *testing.T) {
	e := NewEngine()
	g := NewGate(e)
	var passed []Time
	e.Go("early", func(p *Proc) {
		g.Wait(p)
		passed = append(passed, p.Now())
	})
	e.Go("opener", func(p *Proc) {
		p.Sleep(50 * Nanosecond)
		g.Open()
	})
	e.Go("late", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		g.Wait(p) // already open: no block
		passed = append(passed, p.Now())
	})
	e.RunUntilIdle()
	if len(passed) != 2 || passed[0] != Time(50) || passed[1] != Time(100) {
		t.Fatalf("passed = %v", passed)
	}
}

func TestSemaphore(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, 2)
	var concurrent, maxConcurrent int
	for i := 0; i < 5; i++ {
		e.Go("u", func(p *Proc) {
			sem.Acquire(p)
			concurrent++
			if concurrent > maxConcurrent {
				maxConcurrent = concurrent
			}
			p.Sleep(10 * Nanosecond)
			concurrent--
			sem.Release()
		})
	}
	e.RunUntilIdle()
	if maxConcurrent != 2 {
		t.Fatalf("maxConcurrent = %d, want 2", maxConcurrent)
	}
	if sem.Available() != 2 {
		t.Fatalf("available = %d, want 2", sem.Available())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, 1)
	if !sem.TryAcquire() {
		t.Fatal("first TryAcquire should succeed")
	}
	if sem.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	sem.Release()
	if !sem.TryAcquire() {
		t.Fatal("TryAcquire after Release should succeed")
	}
}

func TestDrainKillsParkedProcs(t *testing.T) {
	e := NewEngine()
	reached := false
	e.Go("stuck", func(p *Proc) {
		s := NewSignal(e)
		s.Wait(p) // never broadcast
		reached = true
	})
	e.Run(Time(1000))
	e.Drain()
	if reached {
		t.Fatal("killed process continued past Wait")
	}
}

// TestDrainUnwindsProcsThatNeverRan: a process whose start event was
// never dispatched is parked too, and Drain must unwind its coroutine.
// Unwinding is synchronous, so the check needs no wait. The count is
// compared with <= base, not == base: the previous test's runner
// goroutine may still be exiting when base is read, but only a process
// outliving Drain can raise the count above it.
func TestDrainUnwindsProcsThatNeverRan(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	ran := false
	for i := 0; i < 16; i++ {
		e.Go("unstarted", func(p *Proc) { ran = true })
	}
	e.Drain()
	if ran {
		t.Fatal("a drained process ran")
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Drain, want at most %d", n, base)
	}
}

// TestDrainRunsDefersSynchronously: a killed process unwinds before
// Drain returns — its deferred calls have run and its goroutine is gone.
func TestDrainRunsDefersSynchronously(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var unwound []string
	for _, name := range []string{"a", "b", "c"} {
		e.Go(name, func(p *Proc) {
			defer func() { unwound = append(unwound, p.Name()) }()
			NewSignal(e).Wait(p) // never broadcast
			t.Errorf("%s continued past Wait", p.Name())
		})
	}
	e.Run(Time(1000))
	if len(unwound) != 0 {
		t.Fatalf("unwound = %v before Drain", unwound)
	}
	e.Drain()
	if got := strings.Join(unwound, ","); got != "a,b,c" {
		t.Fatalf("unwound = %q after Drain, want a,b,c (registration order)", got)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Drain, want at most %d", n, base)
	}
}

// TestProcPanicReachesRun: a panic in process code (anything but the
// kill unwind) propagates out of Engine.Run with its original value.
func TestProcPanicReachesRun(t *testing.T) {
	type boom struct{ at Time }
	e := NewEngine()
	e.Go("faulty", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		panic(boom{p.Now()})
	})
	func() {
		defer func() {
			r := recover()
			if b, ok := r.(boom); !ok || b.at != Time(10) {
				t.Fatalf("recovered %#v from Run, want boom{10}", r)
			}
		}()
		e.Run(Time(1000))
		t.Fatal("Run returned without panicking")
	}()
	e.Drain()
}

// TestProcDirectResume: a process may resume another process directly.
// Control passes to the resumed process until it yields or finishes,
// then returns to the resumer, one process at a time.
func TestProcDirectResume(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Go("parent", func(p *Proc) {
		log = append(log, "p0")
		child := e.Go("child", func(c *Proc) {
			log = append(log, "c0")
			c.Yield() // parked until the parent resumes it
			log = append(log, "c1")
			c.Yield()
			log = append(log, "c2")
		})
		p.Sleep(10 * Nanosecond) // the child's start event runs first
		log = append(log, "p1")
		child.Resume()
		log = append(log, "p2")
		child.Resume()
		log = append(log, "p3")
		child.Resume() // finished: a no-op
		log = append(log, "p4")
	})
	e.RunUntilIdle()
	want := "p0,c0,p1,c1,p2,c2,p3,p4"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("log = %s, want %s", got, want)
	}
}

// BenchmarkProcHandoff prices one blocking-style step of a sim.Proc: the
// engine resumes the process and the process sleeps again, one coroutine
// switch each way.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	e.Go("spin", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntilIdle()
	b.StopTimer()
	e.Drain()
}

func TestQueuePutGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, 0)
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Nanosecond)
			q.Put(p, i)
		}
		q.Close()
	})
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.RunUntilIdle()
	if len(got) != 5 {
		t.Fatalf("got = %v", got)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got = %v, want 0..4 in order", got)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, 2)
	var putTimes []Time
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			q.Put(p, i)
			putTimes = append(putTimes, p.Now())
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(100 * Nanosecond)
			if _, ok := q.TryGet(); !ok {
				t.Error("expected item")
			}
		}
	})
	e.RunUntilIdle()
	// First two puts at t=0; third blocks until a Get frees a slot at 100.
	if putTimes[0] != 0 || putTimes[1] != 0 {
		t.Fatalf("putTimes = %v, first two should be at 0", putTimes)
	}
	if putTimes[2] != Time(100) || putTimes[3] != Time(200) {
		t.Fatalf("putTimes = %v, want blocked puts at 100 and 200", putTimes)
	}
}

func TestQueueTryOps(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e, 1)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue should fail")
	}
	if !q.TryPut("a") {
		t.Fatal("TryPut should succeed")
	}
	if q.TryPut("b") {
		t.Fatal("TryPut on full queue should fail")
	}
	q.ForcePut("c")
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2 after ForcePut", q.Len())
	}
	if v, _ := q.Peek(); v != "a" {
		t.Fatalf("peek = %q, want a", v)
	}
	if v, _ := q.TryGet(); v != "a" {
		t.Fatalf("got %q, want a", v)
	}
}
