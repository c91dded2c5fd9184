package main

import (
	"fmt"
	"math/rand"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/eth"
	"ioctopus/internal/experiments"
	"ioctopus/internal/faults"
	"ioctopus/internal/metrics"
	"ioctopus/internal/netstack"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

// A workload is one batch job with a fixed simulated length. Every rep
// builds it afresh from the seed, so repetitions of a run must
// produce identical simulated output.
type workload struct {
	name string
	rep  func(seed int64, traced bool, rec *recorder) *outcome
}

// outcome is what one repetition measured. Host times are process CPU
// time (see cpuTime).
type outcome struct {
	setup, wall time.Duration
	simMS       float64       // simulated ms in the measured window
	window      time.Duration // host time of the measured window
	allocMB     float64       // heap allocated over the whole rep
	windowMB    float64       // heap allocated in the measured window
	heapMB      float64
	counts      map[string]float64 // simulated work, deterministic
	// countsProfiled is set when the counts cover exactly the profiled
	// window, so self time per unit of work is defined.
	countsProfiled bool
	digest         string
	problems       []problem
	profile        []byte // CPU profile of the measured window, traced reps only
}

func (o *outcome) simMSPerS() float64 { return o.simMS / o.window.Seconds() }

// problem is one failed correctness check of a repetition.
type problem struct{ check, detail string }

// The correctness checks, by the name a failure is counted under.
const (
	checkErrors   = "errors"    // workload or experiment reported errors
	checkProgress = "progress"  // a stream moved no bytes or an RR pair completed nothing
	checkBusyTime = "busy_time" // a server core busier than the window
	checkWire     = "wire_rate" // goodput above the link rate
	checkShape    = "shape"     // a paper shape check failed
	checkDigest   = "digest"    // simulated output differs from rep 0's
	checkProfile  = "profile"   // the CPU profile could not be taken
)

var allChecks = []string{checkErrors, checkProgress, checkBusyTime, checkWire, checkShape, checkDigest, checkProfile}

func (o *outcome) fail(check, format string, args ...any) {
	o.problems = append(o.problems, problem{check, fmt.Sprintf(format, args...)})
}

var allWorkloads = []workload{
	{"nudma-rx", clusterRep(nudmaRx)},
	{"rr-fanout", clusterRep(rrFanout)},
	{"busypoll-tx", clusterRep(busypollTx)},
	{"paper-quick", paperQuick},
}

// clusterWorkload describes a workload that runs on one testbed.
type clusterWorkload struct {
	warmup, measure time.Duration
	config          func(seed int64) core.Config
	start           func(cl *core.Cluster, rng *rand.Rand) *handles
}

// pickCores draws n distinct cores of a node's first avail cores.
func pickCores(rng *rand.Rand, topo *topology.Server, node topology.NodeID, avail, n int) []topology.CoreID {
	cores := topo.CoresOn(node)
	out := make([]topology.CoreID, n)
	for i, j := range rng.Perm(avail)[:n] {
		out[i] = cores[j].ID
	}
	return out
}

// handles are the running workload instances a rep checks.
type handles struct {
	streams []*workloads.Stream // one instance each
	rrs     []*workloads.RR
}

func retxStack() *netstack.Params {
	sp := netstack.DefaultParams()
	sp.RetxTimeout = 2 * time.Millisecond
	sp.RetxMaxTries = 12
	return &sp
}

// nudmaRx: two 64 KB TCP_STREAM Rx instances into PF0 under the
// standard firmware, one on a node-0 core and one on a node-1 core
// (its DMA crosses QPI), one STREAM antagonist pair, and 0.1%
// client->server loss recovered by 2 ms retransmission timers.
var nudmaRx = clusterWorkload{
	warmup:  10 * time.Millisecond,
	measure: 400 * time.Millisecond,
	config: func(seed int64) core.Config {
		return core.Config{
			Mode:        core.ModeStandard,
			StackParams: retxStack(),
			FaultPlan: &faults.Plan{Seed: seed, Events: []faults.Event{{
				Kind: faults.Loss, Dir: faults.ClientToServer, Prob: 0.001, Duration: time.Hour,
			}}},
			Seed: seed,
		}
	},
	start: func(cl *core.Cluster, _ *rand.Rand) *handles {
		h := &handles{}
		client := cl.Client.Topo.CoresOn(0)
		for i, node := range []topology.NodeID{0, 1} {
			h.streams = append(h.streams, workloads.StartStream(cl, workloads.StreamConfig{
				MsgSize:     64 << 10,
				Direction:   workloads.Rx,
				ServerCores: []topology.CoreID{cl.FirstCoreOn(node)},
				ClientCores: []topology.CoreID{client[2*i].ID},
				ServerIP:    core.IPServerPF0,
				Port:        12000 + uint16(i),
			}))
		}
		workloads.StartAntagonist(cl.Server, workloads.DefaultAntagonistConfig(1))
		return h
	},
}

// rrFanout: eight concurrent 64 B TCP_RR pairs under the IOctopus
// firmware, four on each socket's cores, retransmission armed without
// loss, every round trip recorded. The seed draws the cores.
var rrFanout = clusterWorkload{
	warmup:  5 * time.Millisecond,
	measure: 60 * time.Millisecond,
	config: func(seed int64) core.Config {
		return core.Config{Mode: core.ModeIOctopus, StackParams: retxStack(), Seed: seed}
	},
	start: func(cl *core.Cluster, rng *rand.Rand) *handles {
		h := &handles{}
		var server, client []topology.CoreID
		for i := 0; i < 8; i++ {
			node := topology.NodeID(i / 4)
			if i%4 == 0 {
				server = pickCores(rng, cl.Server.Topo, node, len(cl.Server.Topo.CoresOn(node)), 4)
				client = pickCores(rng, cl.Client.Topo, node, len(cl.Client.Topo.CoresOn(node)), 4)
			}
			h.rrs = append(h.rrs, workloads.StartRR(cl, workloads.RRConfig{
				MsgSize:    64,
				ServerCore: server[i%4],
				ClientCore: client[i%4],
				ServerIP:   core.IPServerPF0,
				Port:       13000 + uint16(i),
				Proto:      eth.ProtoTCP,
			}))
		}
		return h
	},
}

// busypollTx: two 64 KB TCP_STREAM Tx instances, one per server node,
// under the IOctopus firmware on the busy-poll datapath; retx off. The
// seed draws the cores, leaving each node's last core to its poller.
var busypollTx = clusterWorkload{
	warmup:  5 * time.Millisecond,
	measure: 50 * time.Millisecond,
	config: func(seed int64) core.Config {
		return core.Config{Mode: core.ModeIOctopus, Datapath: core.DatapathBusyPoll, Seed: seed}
	},
	start: func(cl *core.Cluster, rng *rand.Rand) *handles {
		h := &handles{}
		// Each client sink takes its core and the next one (softirq and
		// app), so the sinks are drawn from even core slots.
		client := cl.Client.Topo.CoresOn(0)
		sinks := rng.Perm(len(client) / 2)
		for i, node := range []topology.NodeID{0, 1} {
			n := len(cl.Server.Topo.CoresOn(node))
			h.streams = append(h.streams, workloads.StartStream(cl, workloads.StreamConfig{
				MsgSize:     64 << 10,
				Direction:   workloads.Tx,
				ServerCores: pickCores(rng, cl.Server.Topo, node, n-1, 1),
				ClientCores: []topology.CoreID{client[2*sinks[i]].ID},
				Port:        12000 + uint16(i),
			}))
		}
		return h
	},
}

// clusterRep runs one repetition of a cluster workload: build, start,
// warm up, measure a fixed simulated window, check, drain.
func clusterRep(w clusterWorkload) func(int64, bool, *recorder) *outcome {
	return func(seed int64, traced bool, rec *recorder) *outcome {
		o := &outcome{}
		start := memStats()
		t0 := cpuTime()
		var cl *core.Cluster
		var h *handles
		rec.do("core.build", func() { cl = core.NewCluster(w.config(seed)) })
		rec.do("workloads.start", func() { h = w.start(cl, rand.New(rand.NewSource(seed))) })
		rec.do("core.warmup", func() { cl.Run(w.warmup) })
		o.setup = cpuTime() - t0

		var before, after []metrics.Sample
		rec.do("metrics.snapshot", func() { before = cl.Reg.Snapshot() })
		for _, s := range h.streams {
			s.MeasureStart()
		}
		for _, r := range h.rrs {
			r.MeasureStart()
		}
		m0 := memStats()
		stop := startProfile(traced, o)
		o.window = rec.do("core.measure", func() { cl.Run(w.measure) })
		stop()
		o.windowMB = allocatedMB(m0)
		rec.do("metrics.snapshot", func() { after = cl.Reg.Snapshot() })
		o.heapMB = liveHeapMB()
		o.simMS = float64(w.measure) / 1e6

		o.counts = windowCounts(before, after, w.measure)
		o.countsProfiled = true
		checkHandles(o, h, w.measure)
		checkBusy(o, before, after, w.measure)
		o.digest = digest(after, outcomeLines(h))

		rec.do("core.drain", cl.Drain)
		o.wall = cpuTime() - t0
		o.allocMB = allocatedMB(start)
		return o
	}
}

// quickExperiments is the fixed list paper-quick runs, each with the
// harness's quick durations.
var quickExperiments = []string{
	"fig6-multicore", "fig8", "fig11", "fig15-octossd", "ablation-remote-ddio",
	"ablation-sg", "ablation-window", "ablation-scheduler", "baseline-bond", "baseline-quad",
}

// quickBuilds is how many default testbeds paper-quick builds to time
// its set-up: the cluster build every experiment point pays.
const quickBuilds = 5

// paperQuick runs the quick experiment list serially, in an order
// drawn from the seed, then the harness's registry-telemetry run
// (experiments.RegistrySnapshots, both NIC modes, at the full-run
// windows `ioctobench -json` uses), the one part of the suite that
// exposes its simulated clock.
func paperQuick(seed int64, traced bool, rec *recorder) *outcome {
	o := &outcome{}
	start := memStats()
	t0 := cpuTime()
	builds := make([]time.Duration, quickBuilds)
	for i := range builds {
		var cl *core.Cluster
		builds[i] = rec.do("core.build", func() { cl = core.NewCluster(core.Config{}) })
		// Start the cluster's processes before draining it: Drain does
		// not stop processes that never ran, and their goroutines would
		// keep the cluster alive.
		cl.Run(0)
		cl.Drain()
	}
	o.setup = median(builds)

	ids := append([]string(nil), quickExperiments...)
	rand.New(rand.NewSource(seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	m0 := memStats()
	stop := startProfile(traced, o)
	var lines []string
	for _, id := range ids {
		var res *experiments.Result
		var err error
		rec.do("experiments."+id, func() { res, err = experiments.Run(id, experiments.Quick()) })
		if err != nil {
			o.fail(checkErrors, "%s: %v", id, err)
			continue
		}
		for _, c := range res.Checks {
			if !c.Pass {
				o.fail(checkShape, "%s: shape check %q failed: %s", id, c.Name, c.Detail)
			}
		}
		lines = append(lines, res.Render())
	}
	var snaps []experiments.RegistrySnapshot
	o.window = rec.do("experiments.registry_snapshots", func() { snaps = experiments.RegistrySnapshots(experiments.Full()) })
	stop()
	o.windowMB = allocatedMB(m0)
	o.heapMB = liveHeapMB()

	o.counts = map[string]float64{}
	var all []metrics.Sample
	for _, s := range snaps {
		o.simMS += s.SimSeconds * 1e3
		simWindow := time.Duration(s.SimSeconds * 1e9)
		for k, v := range windowCounts(nil, s.Samples, simWindow) {
			o.counts[k] += v
		}
		checkBusy(o, nil, s.Samples, simWindow)
		for _, x := range s.Samples {
			all = append(all, metrics.Sample{Name: s.Mode + "/" + x.Name, Kind: x.Kind, Value: x.Value})
		}
	}
	// Ratios and rates summed over the two modes are re-derived as
	// their mean.
	for _, k := range []string{"sim.events_per_sim_ms", "kernel.server_busy_frac", "nic.pool_hit_ratio",
		"driver.empty_poll_ratio", "memsys.llc_hit_ratio"} {
		o.counts[k] /= float64(len(snaps))
	}
	o.digest = digest(all, lines)
	o.wall = cpuTime() - t0
	o.allocMB = allocatedMB(start)
	return o
}
