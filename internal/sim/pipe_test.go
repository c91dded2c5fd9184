package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func newTestPipe(e *Engine, bps float64, lat time.Duration) *Pipe {
	return NewPipe(e, PipeConfig{Name: "test", BytesPerSec: bps, BaseLatency: lat})
}

func TestPipeSerializationTime(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 0) // 1 GB/s, no base latency
	var done Time
	p.Transfer(1000, func() { done = e.Now() })
	e.RunUntilIdle()
	// 1000 bytes at 1 GB/s = 1us.
	if done != Time(1000) {
		t.Fatalf("done = %v, want 1000ns", done)
	}
}

func TestPipeBaseLatency(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 500*Nanosecond)
	var done Time
	p.Transfer(1000, func() { done = e.Now() })
	e.RunUntilIdle()
	if done != Time(1500) {
		t.Fatalf("done = %v, want 1500ns (500 latency + 1000 serialization)", done)
	}
}

func TestPipeFIFOBackToBack(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 0)
	var t1, t2 Time
	p.Transfer(1000, func() { t1 = e.Now() })
	p.Transfer(1000, func() { t2 = e.Now() })
	e.RunUntilIdle()
	if t1 != Time(1000) || t2 != Time(2000) {
		t.Fatalf("t1=%v t2=%v, want 1000/2000 (FIFO serialization)", t1, t2)
	}
}

func TestPipeZeroByteTransfer(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 100*Nanosecond)
	var done Time
	p.Transfer(0, func() { done = e.Now() })
	e.RunUntilIdle()
	if done != Time(100) {
		t.Fatalf("done = %v, want base latency only", done)
	}
}

func TestPipeStats(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 0)
	p.Transfer(500, nil)
	p.Transfer(1500, nil)
	e.RunUntilIdle()
	if p.DiscreteBytes() != 2000 {
		t.Fatalf("bytes = %v, want 2000", p.DiscreteBytes())
	}
	if p.DiscreteOps() != 2 {
		t.Fatalf("ops = %v, want 2", p.DiscreteOps())
	}
	p.ResetStats()
	if p.DiscreteBytes() != 0 || p.DiscreteOps() != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestPipeFluidSingleFlow(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 0)
	f := p.AddFlow("bulk", 4e8) // wants 400 MB/s of a 1 GB/s pipe
	e.Run(Time(1_000_000))      // 1 ms
	got := f.Bytes()
	want := 4e8 * 1e-3 // 400KB
	if math.Abs(got-want) > want*0.01 {
		t.Fatalf("flow bytes = %v, want ~%v", got, want)
	}
}

func TestPipeFluidOversubscribed(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 0)
	f1 := p.AddFlow("a", 8e8)
	f2 := p.AddFlow("b", 8e8)
	// Demand 1.6 GB/s on a 1 GB/s pipe: each should get 500 MB/s.
	if math.Abs(f1.Rate()-5e8) > 1e6 || math.Abs(f2.Rate()-5e8) > 1e6 {
		t.Fatalf("rates = %v, %v; want 5e8 each", f1.Rate(), f2.Rate())
	}
}

func TestPipeFluidWaterFill(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 0)
	small := p.AddFlow("small", 1e8) // 100 MB/s
	big := p.AddFlow("big", 2e9)     // wants more than the pipe
	// Small flow fully satisfied; big takes the rest.
	if math.Abs(small.Rate()-1e8) > 1e6 {
		t.Fatalf("small rate = %v, want 1e8", small.Rate())
	}
	if math.Abs(big.Rate()-9e8) > 1e7 {
		t.Fatalf("big rate = %v, want ~9e8", big.Rate())
	}
}

func TestPipeFluidElastic(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 0)
	fixed := p.AddFlow("fixed", 3e8)
	el := p.AddFlow("elastic", math.Inf(1))
	if math.Abs(fixed.Rate()-3e8) > 1e7 {
		t.Fatalf("fixed rate = %v", fixed.Rate())
	}
	if math.Abs(el.Rate()-7e8) > 1e7 {
		t.Fatalf("elastic rate = %v, want ~7e8", el.Rate())
	}
}

func TestPipeFluidRemoveRestoresCapacity(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 0)
	f1 := p.AddFlow("a", 9e8)
	f2 := p.AddFlow("b", 9e8)
	p.RemoveFlow(f1)
	if math.Abs(f2.Rate()-9e8) > 1e7 {
		t.Fatalf("survivor rate = %v, want 9e8 after removal", f2.Rate())
	}
	if f1.Rate() != 0 {
		t.Fatalf("removed flow rate = %v, want 0", f1.Rate())
	}
}

func TestPipeFluidSlowsDiscrete(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 0)
	var unloaded Time
	p.Transfer(10000, func() { unloaded = e.Now() })
	e.RunUntilIdle()

	e2 := NewEngine()
	p2 := newTestPipe(e2, 1e9, 0)
	p2.AddFlow("hog", 9e8)
	var loaded Time
	p2.Transfer(10000, func() { loaded = e2.Now() })
	e2.RunUntilIdle()
	if loaded <= unloaded {
		t.Fatalf("fluid load should slow discrete transfers: loaded=%v unloaded=%v", loaded, unloaded)
	}
}

func TestPipeInflationGrowsWithLoad(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 100*Nanosecond)
	i0 := p.Inflation()
	p.AddFlow("hog", 9e8)
	i1 := p.Inflation()
	if i1 <= i0 {
		t.Fatalf("inflation did not grow: %v -> %v", i0, i1)
	}
	if i1 > 25 {
		t.Fatalf("inflation uncapped: %v", i1)
	}
}

func TestPipeUtilization(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 0)
	if u := p.Utilization(); u != 0 {
		t.Fatalf("idle utilization = %v, want 0", u)
	}
	p.AddFlow("half", 5e8)
	if u := p.Utilization(); math.Abs(u-0.5) > 0.01 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestPipeDiscreteRateDecays(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e9, 0)
	p.Transfer(100000, nil)
	e.RunUntilIdle()
	r0 := p.DiscreteRate()
	if r0 <= 0 {
		t.Fatal("rate estimate should be positive after a transfer")
	}
	e.Run(e.Now().Add(10 * Millisecond))
	r1 := p.DiscreteRate()
	if r1 >= r0/10 {
		t.Fatalf("rate should decay: %v -> %v", r0, r1)
	}
}

func TestPipeTransferProc(t *testing.T) {
	e := NewEngine()
	p := newTestPipe(e, 1e6, 0) // 1 MB/s
	var end Time
	e.Go("xfer", func(pr *Proc) {
		p.TransferProc(pr, 1000) // 1 ms
		end = pr.Now()
	})
	e.RunUntilIdle()
	if end != Time(1_000_000) {
		t.Fatalf("end = %v, want 1ms", end)
	}
}

func TestPipeFluidConservation(t *testing.T) {
	// Property: total allocated fluid rate never exceeds capacity.
	f := func(demands []uint32) bool {
		e := NewEngine()
		p := newTestPipe(e, 1e9, 0)
		for i, d := range demands {
			if i >= 8 {
				break
			}
			p.AddFlow("f", float64(d%2_000_000_000))
		}
		return p.FluidRate() <= p.Capacity()*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeFluidDemandCap(t *testing.T) {
	// Property: no flow is ever allocated more than its demand.
	f := func(demands []uint32) bool {
		e := NewEngine()
		p := newTestPipe(e, 1e9, 0)
		var flows []*FluidFlow
		for i, d := range demands {
			if i >= 8 {
				break
			}
			flows = append(flows, p.AddFlow("f", float64(d%2_000_000_000)))
		}
		for _, fl := range flows {
			if fl.Rate() > fl.Demand()+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminismAndFork(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	f1, f2 := NewRNG(7).Fork(1), NewRNG(7).Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Intn(1000) == f2.Intn(1000) {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("forked streams look correlated: %d/100 equal", same)
	}
}

func TestRNGDistributions(t *testing.T) {
	g := NewRNG(3)
	var sum time.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		sum += g.Exp(100 * Nanosecond)
	}
	mean := sum / n
	if mean < 90*Nanosecond || mean > 110*Nanosecond {
		t.Fatalf("exp mean = %v, want ~100ns", mean)
	}
	for i := 0; i < 1000; i++ {
		if g.Normal(100*Nanosecond, 500*Nanosecond) < 0 {
			t.Fatal("Normal returned negative duration")
		}
		d := g.Jitter(100*Nanosecond, 0.1)
		if d < 90*Nanosecond || d > 110*Nanosecond {
			t.Fatalf("jitter out of range: %v", d)
		}
	}
	if g.Bernoulli(0) || !g.Bernoulli(1) {
		t.Fatal("Bernoulli edge cases wrong")
	}
}
