package memsys

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ioctopus/internal/interconnect"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// batchRig is one memory system plus the buffers the oracle test drives.
type batchRig struct {
	eng  *sim.Engine
	sys  *System
	bufs []*Buffer
	// entry is the read size batched reads of bufs[i] use.
	entry []int64
}

func newBatchRig() *batchRig {
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	s := New(e, srv, interconnect.New(e, srv), DefaultParams())
	r := &batchRig{eng: e, sys: s}
	add := func(name string, home topology.NodeID, size, entry int64, random bool) {
		r.bufs = append(r.bufs, s.NewBuffer(name, home, size).SetRandomAccess(random))
		r.entry = append(r.entry, entry)
	}
	add("rxc", 0, 1024*64, 64, true)    // a NIC completion ring
	add("txc", 1, 256*64, 64, true)     // a ring homed on the other socket
	add("sq", 0, 64*16, 16, true)       // sub-line entries
	add("tiny", 1, 3*64, 64, true)      // smallest ring the closed form takes
	add("pair", 0, 2*64, 64, true)      // two lines: always the per-entry loop
	add("odd", 1, 65, 64, true)         // a resident byte estimates no hit
	add("wide", 0, 64*100, 100, true)   // entries wider than a line: the loop
	add("recyc", 0, 64*1024, 64, false) // recycled-buffer hit estimate
	// Bulk buffers that push the rings out of both LLC partitions.
	add("bulk0", 0, 12<<20, 64, false)
	add("bulk1", 1, 12<<20, 64, false)
	add("dma", 0, 4<<20, 64, false)
	return r
}

// batchState names the residency a batched read starts from.
func batchState(b *Buffer, node topology.NodeID, pressured bool) string {
	switch {
	case b.node == topology.NoNode:
		return "uncached"
	case b.node != node:
		return "other-socket"
	case pressured && b.cached >= b.size-64:
		return "pressured-resident"
	case b.ddio:
		return "ddio"
	case b.cached < b.size-64:
		return "partly-resident"
	case b.dirty:
		return "dirty-resident"
	}
	return "resident"
}

// TestCPUReadEntriesMatchesLoop drives two identical memory systems with
// the same random operations; wherever one charges a batch of entry
// reads through CPUReadEntries, the other runs the per-entry CPURead
// loop it stands for. Costs, counters, residency, LRU order and pipe
// state must agree after every step.
func TestCPUReadEntriesMatchesLoop(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 100; seed++ {
		got, want := newBatchRig(), newBatchRig()
		rng := rand.New(rand.NewSource(seed))
		var releases [2][]func()
		for step := 0; step < 600; step++ {
			i := rng.Intn(len(got.bufs))
			node := topology.NodeID(rng.Intn(2))
			bg, bw := got.bufs[i], want.bufs[i]
			// Access sizes are log-uniform up to the whole buffer, so
			// single bytes and whole rings both come up.
			n := bg.size
			if rng.Intn(4) != 0 {
				n = 1 + rng.Int63n(min(bg.size, 1<<rng.Intn(25)))
			}
			switch k := rng.Intn(20); {
			case k < 8:
				entries := 1 + rng.Intn(40)
				if rng.Intn(5) == 0 {
					entries = 1 + rng.Intn(1100) // past a whole 1024-entry ring
				}
				pressured := got.sys.node(node).llc.pollutionBps > 0 && got.eng.Now() > bg.lastTouch
				seen[batchState(bg, node, pressured)]++
				if bg.randomAccess {
					seen["random-access"]++
				} else {
					seen["recycled"]++
				}
				cg := got.sys.CPUReadEntries(node, bg, got.entry[i], entries)
				var cw time.Duration
				for j := 0; j < entries; j++ {
					cw += want.sys.CPURead(node, bw, want.entry[i])
				}
				if cg != cw {
					t.Fatalf("seed %d step %d: %s CPUReadEntries(node %d, %d×%d) = %v, loop %v",
						seed, step, bg.name, node, entries, got.entry[i], cg, cw)
				}
			case k < 10:
				got.sys.CPURead(node, bg, n)
				want.sys.CPURead(node, bw, n)
			case k < 13:
				got.sys.CPUWrite(node, bg, n)
				want.sys.CPUWrite(node, bw, n)
			case k < 14:
				got.sys.DeviceRead(node, bg, n)
				want.sys.DeviceRead(node, bw, n)
			case k < 16:
				got.sys.DeviceWrite(node, bg, n)
				want.sys.DeviceWrite(node, bw, n)
			case k < 17:
				if len(releases[node]) > 0 && rng.Intn(2) == 0 {
					last := len(releases[node]) - 1
					releases[node][last]()
					releases[node] = releases[node][:last]
				} else {
					bps := float64(1+rng.Intn(20)) * 1e9
					rg := got.sys.AddLLCPressure(node, bps)
					rw := want.sys.AddLLCPressure(node, bps)
					releases[node] = append(releases[node], func() { rg(); rw() })
				}
			default:
				d := time.Duration(rng.Int63n(int64(200 * time.Microsecond)))
				if rng.Intn(4) == 0 {
					d *= 100 // long enough for pollution to evict most idle lines
				}
				got.eng.RunFor(d)
				want.eng.RunFor(d)
			}
			if diff := compareRigs(got, want); diff != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, diff)
			}
		}
	}
	for _, s := range []string{"uncached", "partly-resident", "other-socket", "ddio", "dirty-resident",
		"pressured-resident", "resident", "random-access", "recycled"} {
		if seen[s] == 0 {
			t.Errorf("no batched read started from state %q (seen %v)", s, seen)
		}
	}
}

// compareRigs describes the first difference between two rigs' model
// state, or returns "".
func compareRigs(got, want *batchRig) string {
	if got.eng.Now() != want.eng.Now() {
		return fmt.Sprintf("clock %v vs %v", got.eng.Now(), want.eng.Now())
	}
	for n := 0; n < 2; n++ {
		node := topology.NodeID(n)
		if g, w := got.sys.Stats(node), want.sys.Stats(node); g != w {
			return fmt.Sprintf("node %d stats %+v vs %+v", n, g, w)
		}
		gl, wl := got.sys.node(node).llc, want.sys.node(node).llc
		if !lruConsistent(gl, node) || !lruConsistent(wl, node) {
			return fmt.Sprintf("node %d LRU lists inconsistent", n)
		}
		for _, ddio := range []bool{false, true} {
			gp, wp := gl.list(ddio), wl.list(ddio)
			if gp.used != wp.used || gp.count != wp.count {
				return fmt.Sprintf("node %d ddio=%v partition used/count %d/%d vs %d/%d",
					n, ddio, gp.used, gp.count, wp.used, wp.count)
			}
			for gb, wb := gp.head, wp.head; gb != nil || wb != nil; gb, wb = gb.next, wb.next {
				if gb == nil || wb == nil || gb.id != wb.id {
					return fmt.Sprintf("node %d ddio=%v LRU order differs", n, ddio)
				}
			}
		}
		if d := comparePipes(got.sys.node(node).memctl, want.sys.node(node).memctl); d != "" {
			return d
		}
		for m := 0; m < 2; m++ {
			if m == n {
				continue
			}
			other := topology.NodeID(m)
			if d := comparePipes(got.sys.Fabric().Pipe(node, other), want.sys.Fabric().Pipe(node, other)); d != "" {
				return d
			}
		}
	}
	for i, gb := range got.bufs {
		wb := want.bufs[i]
		g := [...]any{gb.node, gb.cached, gb.dirty, gb.ddio, gb.lastTouch}
		w := [...]any{wb.node, wb.cached, wb.dirty, wb.ddio, wb.lastTouch}
		if g != w {
			return fmt.Sprintf("buffer %s (node, cached, dirty, ddio, lastTouch) = %v, loop %v", gb.name, g, w)
		}
	}
	return ""
}

func comparePipes(g, w *sim.Pipe) string {
	gs := [...]any{g.DiscreteBytes(), g.DiscreteOps(), g.DiscreteRate(), g.MeanLatency(), g.Inflation()}
	ws := [...]any{w.DiscreteBytes(), w.DiscreteOps(), w.DiscreteRate(), w.MeanLatency(), w.Inflation()}
	if gs != ws {
		return fmt.Sprintf("pipe %s (bytes, ops, rate, mean latency, inflation) = %v, loop %v", g.Name(), gs, ws)
	}
	return ""
}
