package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestPointsOrderAndCoverage: results land at their own index, every
// index runs exactly once, at serial and parallel levels.
func TestPointsOrderAndCoverage(t *testing.T) {
	for _, par := range []int{1, 4} {
		old := Parallelism()
		SetParallelism(par)
		var calls atomic.Int64
		out := points(50, func(i int) int {
			calls.Add(1)
			return i * i
		})
		SetParallelism(old)
		if calls.Load() != 50 {
			t.Fatalf("par=%d: fn ran %d times, want 50", par, calls.Load())
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// TestGridShape: grid slots results by (outer, inner).
func TestGridShape(t *testing.T) {
	g := grid(3, 4, func(o, i int) int { return 10*o + i })
	if len(g) != 3 {
		t.Fatalf("outer = %d, want 3", len(g))
	}
	for o := range g {
		if len(g[o]) != 4 {
			t.Fatalf("inner = %d, want 4", len(g[o]))
		}
		for i, v := range g[o] {
			if v != 10*o+i {
				t.Fatalf("g[%d][%d] = %d, want %d", o, i, v, 10*o+i)
			}
		}
	}
}

// TestSetParallelismClamps: n < 1 degrades to serial, not a panic.
func TestSetParallelismClamps(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(0)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d, want 1", Parallelism())
	}
}

// TestFig9Deterministic guards both halves of the performance overhaul:
// the engine's value-heap rewrite (same run twice must render
// identically) and the parallel point-runner (a fanned-out run must
// render identically to the serial one, bit for bit).
func TestFig9Deterministic(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	d := Quick()

	SetParallelism(1)
	serial1, err := Run("fig9", d)
	if err != nil {
		t.Fatal(err)
	}
	serial2, err := Run("fig9", d)
	if err != nil {
		t.Fatal(err)
	}
	if serial1.Render() != serial2.Render() {
		t.Fatalf("two serial fig9 runs differ:\n--- first\n%s\n--- second\n%s",
			serial1.Render(), serial2.Render())
	}

	SetParallelism(8)
	par, err := Run("fig9", d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := par.Render(), serial1.Render(); got != want {
		t.Fatalf("parallel fig9 differs from serial:\n--- parallel\n%s\n--- serial\n%s", got, want)
	}
}

// TestSetShardsAcceptsOnlyOne: the serial engine is the only engine, so
// the SetShards shim takes 1 and panics on anything else.
func TestSetShardsAcceptsOnlyOne(t *testing.T) {
	SetShards(1)
	for _, n := range []int{0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetShards(%d) did not panic", n)
				}
			}()
			SetShards(n)
		}()
	}
}

// procsRun renders fig2 + chaos and snapshots the canonical telemetry
// registry at the given GOMAXPROCS. Everything a report exports is
// covered: rendered tables, pass/fail checks, and the raw metrics
// samples (engine clocks, pool depths, pipe counters).
func procsRun(t *testing.T, procs int) (rendered string, snapshots []byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	d := Quick()
	for _, id := range []string{"fig2", "chaos"} {
		res, err := Run(id, d)
		if err != nil {
			t.Fatalf("procs=%d: %s: %v", procs, id, err)
		}
		rendered += res.Render()
	}
	snaps, err := json.Marshal(RegistrySnapshots(d))
	if err != nil {
		t.Fatalf("procs=%d: marshal snapshots: %v", procs, err)
	}
	return rendered, snaps
}

// TestGOMAXPROCSDeterminism: fig2 (the headline result) and chaos
// (fault windows, retransmission, PF failover — the hardest path to
// keep deterministic) render byte-identically, with byte-identical
// metrics snapshots, whether the point harness's workers share one OS
// thread or run on several.
func TestGOMAXPROCSDeterminism(t *testing.T) {
	refRender, refSnaps := procsRun(t, runtime.NumCPU())
	if refRender == "" {
		t.Fatal("reference run rendered nothing")
	}
	procs := []int{1, 2}
	if testing.Short() {
		procs = procs[:1]
	}
	for _, p := range procs {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			gotRender, gotSnaps := procsRun(t, p)
			if gotRender != refRender {
				t.Errorf("rendered output diverges from the reference run:\n--- got\n%s\n--- want\n%s",
					gotRender, refRender)
			}
			if string(gotSnaps) != string(refSnaps) {
				t.Errorf("metrics snapshots diverge from the reference run:\n--- got\n%s\n--- want\n%s",
					gotSnaps, refSnaps)
			}
		})
	}
}
