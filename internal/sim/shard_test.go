package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// pingPong builds a two-shard model exchanging cross posts with the
// given one-way latency: each shard runs local work every localStep and
// bounces a message to its peer on every arrival. It returns each
// shard's dispatch log (appended only by that shard's goroutine, so the
// logs are race-free and fully ordered).
func pingPong(t *testing.T, until Time, latency, localStep time.Duration) [2][]string {
	t.Helper()
	a, b := NewEngine(), NewEngine()
	g := NewGroup(a, b)
	g.Link(a, b, latency, nil)
	g.Link(b, a, latency, nil)

	var logs [2][]string
	record := func(e *Engine, what string) {
		logs[e.Shard()] = append(logs[e.Shard()], fmt.Sprintf("%d@%s", e.Now(), what))
	}
	var bounce func(src, dst *Engine, hop int)
	bounce = func(src, dst *Engine, hop int) {
		src.PostAfter(dst, latency, func() {
			record(dst, fmt.Sprintf("hop%d", hop))
			if hop < 64 {
				bounce(dst, src, hop+1)
			}
		})
	}
	var tick func(e *Engine, n int)
	tick = func(e *Engine, n int) {
		e.After(localStep, func() {
			record(e, fmt.Sprintf("tick%d", n))
			tick(e, n+1)
		})
	}
	tick(a, 0)
	tick(b, 0)
	bounce(a, b, 0)
	bounce(b, a, 0)
	g.Run(until)
	return logs
}

// TestGroupDeterministicAcrossRuns: the same model produces identical
// per-shard dispatch logs on every run, at any GOMAXPROCS.
func TestGroupDeterministicAcrossRuns(t *testing.T) {
	until := Time(500 * Microsecond)
	ref := pingPong(t, until, 700*time.Nanosecond, 1300*time.Nanosecond)
	if len(ref[0]) == 0 || len(ref[1]) == 0 {
		t.Fatal("model dispatched nothing")
	}
	for trial := 0; trial < 3; trial++ {
		prev := runtime.GOMAXPROCS(1 + trial%2*runtime.NumCPU())
		got := pingPong(t, until, 700*time.Nanosecond, 1300*time.Nanosecond)
		runtime.GOMAXPROCS(prev)
		for s := 0; s < 2; s++ {
			if len(got[s]) != len(ref[s]) {
				t.Fatalf("trial %d shard %d: %d events, want %d", trial, s, len(got[s]), len(ref[s]))
			}
			for i := range got[s] {
				if got[s][i] != ref[s][i] {
					t.Fatalf("trial %d shard %d event %d: %q, want %q", trial, s, i, got[s][i], ref[s][i])
				}
			}
		}
	}
}

// TestGroupMatchesSerial: a model whose cross traffic is scheduled
// identically on a single serial engine produces the same dispatch
// sequence — the (at, sub, seq) contract carries across the cut.
func TestGroupMatchesSerial(t *testing.T) {
	until := Time(200 * Microsecond)
	lat := 900 * time.Nanosecond

	// Serial reference: one engine plays both hosts.
	var serial []string
	{
		e := NewEngine()
		var bounce func(hop int)
		bounce = func(hop int) {
			e.After(lat, func() {
				serial = append(serial, fmt.Sprintf("%d:hop%d", e.Now(), hop))
				if hop < 40 {
					bounce(hop + 1)
				}
			})
		}
		bounce(0)
		e.Run(until)
	}

	// Sharded: the same chain alternating between two shards.
	var logs [2][]string
	{
		a, b := NewEngine(), NewEngine()
		g := NewGroup(a, b)
		g.Link(a, b, lat, nil)
		g.Link(b, a, lat, nil)
		var bounce func(src, dst *Engine, hop int)
		bounce = func(src, dst *Engine, hop int) {
			src.PostAfter(dst, lat, func() {
				logs[dst.Shard()] = append(logs[dst.Shard()], fmt.Sprintf("%d:hop%d", dst.Now(), hop))
				if hop < 40 {
					bounce(dst, src, hop+1)
				}
			})
		}
		bounce(a, b, 0)
		g.Run(until)
	}

	merged := make([]string, 0, len(logs[0])+len(logs[1]))
	i, j := 0, 0 // the chain alternates shards; merge preserves hop order
	for i < len(logs[1]) || j < len(logs[0]) {
		if i < len(logs[1]) {
			merged = append(merged, logs[1][i])
			i++
		}
		if j < len(logs[0]) {
			merged = append(merged, logs[0][j])
			j++
		}
	}
	if len(merged) != len(serial) {
		t.Fatalf("sharded dispatched %d hops, serial %d", len(merged), len(serial))
	}
	for k := range merged {
		if merged[k] != serial[k] {
			t.Fatalf("hop %d: sharded %q, serial %q", k, merged[k], serial[k])
		}
	}
}

// TestGroupPipeHorizon: a saturated cross-shard pipe publishes its
// backlog as lookahead and delivers every completion on the peer shard
// at exactly the times the same pipe computes on a serial engine.
func TestGroupPipeHorizon(t *testing.T) {
	const n = 50
	cfg := PipeConfig{Name: "x", BytesPerSec: 1e9, BaseLatency: 300 * time.Nanosecond}

	// Serial reference: same pipe, same burst, one engine.
	var want []Time
	{
		e := NewEngine()
		pp := NewPipe(e, cfg)
		e.At(0, func() {
			for i := 0; i < n; i++ {
				pp.Transfer(1000, func() { want = append(want, e.Now()) })
			}
		})
		e.Run(Time(time.Millisecond))
	}
	if len(want) != n {
		t.Fatalf("serial reference delivered %d transfers, want %d", len(want), n)
	}

	a, b := NewEngine(), NewEngine()
	g := NewGroup(a, b)
	pp := NewPipe(a, cfg)
	pp.SetRemoteDelivery(b)
	if pp.Horizon() == nil {
		t.Fatal("remote pipe did not publish a horizon")
	}
	g.Link(a, b, cfg.BaseLatency, pp.Horizon())
	g.Link(b, a, cfg.BaseLatency, nil)

	var arrivals []Time
	a.At(0, func() {
		for i := 0; i < n; i++ {
			pp.Transfer(1000, func() { arrivals = append(arrivals, b.Now()) })
		}
	})
	g.Run(Time(time.Millisecond))
	if len(arrivals) != n {
		t.Fatalf("delivered %d transfers, want %d", len(arrivals), n)
	}
	for k, at := range arrivals {
		if at != want[k] {
			t.Fatalf("transfer %d arrived at %v on the peer shard, serial says %v", k, at, want[k])
		}
	}
}

// TestGroupWindowBoundaries: clocks equalize at every Run boundary and
// posts beyond the window surface as pending work, not lost work.
func TestGroupWindowBoundaries(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	g := NewGroup(a, b)
	g.Link(a, b, time.Microsecond, nil)
	g.Link(b, a, time.Microsecond, nil)

	fired := false
	a.At(0, func() {
		a.PostAfter(b, 10*time.Microsecond, func() { fired = true })
	})
	g.Run(Time(5 * Microsecond))
	if fired {
		t.Fatal("event beyond the window ran early")
	}
	if a.Now() != Time(5*Microsecond) || b.Now() != Time(5*Microsecond) {
		t.Fatalf("clocks not equalized: a=%v b=%v", a.Now(), b.Now())
	}
	if g.Pending() == 0 {
		t.Fatal("cross post beyond the window vanished")
	}
	g.Run(Time(20 * Microsecond))
	if !fired {
		t.Fatal("cross post never delivered in the next window")
	}
}

// TestGroupShardSyncHooks: OnShardSync hooks run at every barrier.
func TestGroupShardSyncHooks(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	g := NewGroup(a, b)
	g.Link(a, b, time.Microsecond, nil)
	g.Link(b, a, time.Microsecond, nil)
	calls := 0
	a.OnShardSync(func() { calls++ })
	g.Run(Time(Microsecond))
	g.Run(Time(2 * Microsecond))
	if calls != 2 {
		t.Fatalf("sync hook ran %d times, want 2", calls)
	}
}

// TestGroupGuards: the construction and driving invariants panic loudly.
func TestGroupGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("single-engine group", func() { NewGroup(NewEngine()) })
	mustPanic("scheduled engine joins group", func() {
		e := NewEngine()
		e.At(0, func() {})
		NewGroup(e, NewEngine())
	})
	mustPanic("double membership", func() {
		a, b := NewEngine(), NewEngine()
		NewGroup(a, b)
		NewGroup(a, NewEngine())
	})
	mustPanic("zero lookahead link", func() {
		a, b := NewEngine(), NewEngine()
		g := NewGroup(a, b)
		g.Link(a, b, 0, nil)
	})
	mustPanic("Run on grouped engine", func() {
		a, b := NewEngine(), NewEngine()
		NewGroup(a, b)
		a.Run(Time(Microsecond))
	})
	mustPanic("RunUntilIdle on grouped engine", func() {
		a, b := NewEngine(), NewEngine()
		NewGroup(a, b)
		a.RunUntilIdle()
	})
}

// TestGroupExecutedSum: Group.Executed sums the shards' dispatches and
// every scheduled event is accounted to exactly one shard.
func TestGroupExecutedSum(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	g := NewGroup(a, b)
	g.Link(a, b, time.Microsecond, nil)
	g.Link(b, a, time.Microsecond, nil)
	for i := 0; i < 10; i++ {
		a.At(Time(i)*Time(Microsecond), func() {})
		b.At(Time(i)*Time(Microsecond), func() {})
	}
	a.At(0, func() { a.PostAfter(b, 2*time.Microsecond, func() {}) })
	g.Run(Time(100 * Microsecond))
	if got := g.Executed(); got != 22 {
		t.Fatalf("Executed = %d, want 22", got)
	}
}

// TestGroupPostPrecedesLane: a cross-shard post due at the receiver's
// current instant was scheduled before that instant, so it dispatches
// ahead of the receiver's ready lane (events the instant itself
// scheduled at +0), exactly where a serial engine puts it.
func TestGroupPostPrecedesLane(t *testing.T) {
	const lat = 500 * time.Nanosecond
	at := Time(2 * Microsecond)
	model := func(sender, receiver *Engine, log *[]string) {
		rec := func(what string) func() {
			return func() { *log = append(*log, fmt.Sprintf("%d:%s", receiver.Now(), what)) }
		}
		// Scheduled at 0 for `at`: runs first and fills the lane.
		receiver.At(at, func() {
			rec("timer")()
			receiver.After(0, func() {
				rec("lane1")()
				receiver.After(0, rec("lane3"))
			})
			receiver.After(0, rec("lane2"))
		})
		// Scheduled at at-lat for `at`, from the sender.
		sender.At(at.Add(-lat), func() { sender.Post(receiver, at, rec("post")) })
	}
	want := []string{"2000:timer", "2000:post", "2000:lane1", "2000:lane2", "2000:lane3"}
	check := func(name string, got []string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s dispatch order %v, want %v", name, got, want)
		}
	}

	var serial []string
	e := NewEngine()
	model(e, e, &serial)
	e.Run(Time(10 * Microsecond))
	check("serial", serial)

	var sharded []string
	a, b := NewEngine(), NewEngine()
	g := NewGroup(a, b)
	g.Link(a, b, lat, nil)
	g.Link(b, a, lat, nil)
	model(a, b, &sharded)
	g.Run(Time(10 * Microsecond))
	check("sharded", sharded)
}
