// Command perfbench is the simulator's benchmark. It runs one workload
// for a fixed host-time budget as repeated batch jobs, each of fixed
// simulated length, calling the simulator's Go packages directly, and
// prints one JSON result line:
//
//	go run . -workload nudma-rx -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it reports the end-to-end metrics (host speed, set-up
// time, memory). With -trace 1 it alternates untraced and traced
// repetitions, profiles the measured window of the traced ones, and
// reports per-layer metrics: host CPU self time per simulator module,
// spans around each call into a layer, simulated work counts, and host
// cost per unit of work. The spans and raw profiles are written under
// -out. See README.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"

	"ioctopus/internal/experiments"
)

// metricName is the form every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// countUnits gives the unit of each simulated count.
var countUnits = map[string]string{
	"sim.events": "count", "sim.events_per_sim_ms": "1/sim-ms",
	"kernel.server_busy_frac": "ratio",
	"nic.rx_packets":          "count", "nic.tx_packets": "count", "nic.interrupts": "count",
	"nic.pool_hit_ratio": "ratio",
	"driver.polls":       "count", "driver.empty_poll_ratio": "ratio",
	"netstack.rx_segments": "count", "netstack.retransmits": "count", "netstack.retx_timeouts": "count",
	"memsys.llc_hit_ratio": "ratio", "memsys.dram_bytes": "bytes",
	"interconnect.discrete_bytes": "bytes", "interconnect.fluid_bytes": "bytes",
	"faults.loss_drops": "count",
	"workloads.gbps":    "Gb/s", "workloads.transactions": "count",
	"workloads.rr_p50_us": "us", "workloads.rr_p99_us": "us",
}

// spanNames are the layer calls the benchmark times, reported as
// <name>_s per repetition.
func spanNames() []string {
	names := []string{"core.build", "workloads.start", "core.warmup", "core.measure",
		"metrics.snapshot", "core.drain", "experiments.registry_snapshots"}
	for _, id := range quickExperiments {
		names = append(names, "experiments."+id)
	}
	return names
}

// unitCosts are host nanoseconds per unit of simulated work: the
// bucket's self time over the count.
var unitCosts = []struct{ name, bucket, unit string }{
	{"sim.self_ns_per_event", "sim", "sim.events"},
	{"runtime.handoff_ns_per_event", bucketHandoff, "sim.events"},
	{"nic.self_ns_per_packet", "nic", "nic.packets"},
	{"driver.self_ns_per_poll", "driver", "driver.polls"},
	{"netstack.self_ns_per_segment", "netstack", "netstack.rx_segments"},
	{"memsys.self_ns_per_dram_kb", "memsys", "memsys.dram_kb"},
}

func main() {
	wlName := flag.String("workload", "", "workload: nudma-rx, rr-fanout, busypoll-tx or paper-quick")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the traced run's spans and CPU profiles")
	flag.Parse()

	var wl *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == *wlName {
			wl = &allWorkloads[i]
		}
	}
	if wl == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	experiments.SetParallelism(1)
	experiments.SetShards(1)
	meta := map[string]any{
		"workload": wl.name, "seed": *seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, nproc %d, GOMAXPROCS %d, %s\n",
		wl.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	traced := *trace == 1
	minReps := 1
	if traced {
		minReps = 2 // at least one untraced and one traced
	}
	rec := newRecorder()
	var outs []*outcome
	failed := 0
	failedBy := map[string]int{} // failed reps per check
	for _, c := range allChecks {
		failedBy[c] = 0
	}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < *seconds; i++ {
		rec.rep = i
		runtime.GC()
		var o *outcome
		w0 := time.Now()
		rec.do("rep", func() { o = wl.rep(*seed, traced && i%2 == 1, rec) })
		wallClock := time.Since(w0)
		if len(outs) > 0 && o.digest != outs[0].digest {
			o.fail(checkDigest, "digest %s differs from rep 0's %s", o.digest, outs[0].digest)
		}
		if len(o.problems) > 0 {
			failed++
		}
		seen := map[string]bool{}
		for _, p := range o.problems {
			if !seen[p.check] {
				seen[p.check] = true
				failedBy[p.check]++
			}
		}
		fmt.Fprintf(os.Stderr, "rep %d traced=%v sim_ms_per_s=%.2f wall_s=%.3f setup_s=%.4f alloc_mb=%.2f heap_mb=%.2f wall_clock_s=%.3f digest=%s\n",
			i, o.profile != nil, o.simMSPerS(), o.wall.Seconds(), o.setup.Seconds(), o.allocMB, o.heapMB, wallClock.Seconds(), o.digest)
		for _, p := range o.problems {
			fmt.Fprintf(os.Stderr, "  FAIL %s: %s\n", p.check, p.detail)
		}
		outs = append(outs, o)
	}

	// One figure per check, so a check that fails on every rep does not
	// mask a second one that starts failing.
	meta["failed_reps_by_check"] = failedBy
	fmt.Fprintf(os.Stderr, "perfbench: failed reps of %d by check:", len(outs))
	for _, c := range allChecks {
		fmt.Fprintf(os.Stderr, " failed_%s=%d", c, failedBy[c])
	}
	fmt.Fprintln(os.Stderr)

	res := result{Correct: failed == 0, Attempted: len(outs), Failed: failed, Metrics: map[string]metricValue{}}
	if traced {
		ok := perLayer(res.Metrics, outs, rec.spans)
		res.Correct = res.Correct && ok
		if err := writeTraceFiles(*outDir, wl.name, *seed, outs, rec.spans, meta); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		endToEnd(res.Metrics, outs)
	}
	for name := range res.Metrics {
		if !metricName.MatchString(name) {
			fmt.Fprintf(os.Stderr, "perfbench: invalid metric name %q\n", name)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// endToEnd reports the medians over repetitions of what a user of the
// simulator sees: host speed, waiting time and memory.
func endToEnd(m map[string]metricValue, outs []*outcome) {
	pick := func(f func(*outcome) float64) float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = f(o)
		}
		return median(xs)
	}
	m["sim_ms_per_s"] = metricValue{pick((*outcome).simMSPerS), "sim-ms/s"}
	m["wall_s"] = metricValue{pick(func(o *outcome) float64 { return o.wall.Seconds() }), "s"}
	m["setup_s"] = metricValue{pick(func(o *outcome) float64 { return o.setup.Seconds() }), "s"}
	m["alloc_mb"] = metricValue{pick(func(o *outcome) float64 { return o.allocMB }), "MB"}
	m["heap_mb"] = metricValue{pick(func(o *outcome) float64 { return o.heapMB }), "MB"}
}

// perLayer reports the traced run's per-layer metrics. Self time is
// pooled over the traced repetitions and given per repetition, so the
// buckets add up to cpu_s exactly; it reports false if they do not, or
// if a profile cannot be read.
func perLayer(m map[string]metricValue, outs []*outcome, spans []span) bool {
	ok := true
	var nTraced float64
	var tracedRate, plainRate []float64
	var samples []stackSample
	for _, o := range outs {
		if o.profile == nil {
			plainRate = append(plainRate, o.simMSPerS())
			continue
		}
		tracedRate = append(tracedRate, o.simMSPerS())
		nTraced++
		s, err := parseProfile(o.profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			ok = false
			continue
		}
		samples = append(samples, s...)
	}
	byBucket, total := attribute(samples)
	var sum int64
	for _, b := range allBuckets() {
		sum += byBucket[b]
		m[bucketMetric(b)] = metricValue{ratio(float64(byBucket[b])/1e9, nTraced), "s"}
	}
	if sum != total {
		fmt.Fprintf(os.Stderr, "perfbench: buckets sum to %dns, profile holds %dns\n", sum, total)
		ok = false
	}
	m["cpu_s"] = metricValue{ratio(float64(total)/1e9, nTraced), "s"}
	m["trace.overhead_sim_ms_per_s"] = metricValue{median(tracedRate) - median(plainRate), "sim-ms/s"}

	// Spans: time per repetition in each layer call, median over reps.
	perRep := map[string][]float64{}
	reps := len(outs)
	for _, name := range spanNames() {
		perRep[name] = make([]float64, reps)
	}
	for _, s := range spans {
		if xs, found := perRep[s.Name]; found {
			xs[s.Rep] += s.CPU.Seconds()
		}
	}
	for name, xs := range perRep {
		m[name+"_s"] = metricValue{median(xs), "s"}
	}

	windowMB := make([]float64, len(outs))
	for i, o := range outs {
		windowMB[i] = o.windowMB
	}
	m["core.measure_alloc_mb"] = metricValue{median(windowMB), "MB"}

	// Counts are deterministic; the digest check already holds them
	// equal across reps.
	last := outs[len(outs)-1]
	counts := last.counts
	for name, unit := range countUnits {
		m[name] = metricValue{counts[name], unit}
	}
	units := map[string]float64{
		"sim.events": counts["sim.events"], "nic.packets": counts["nic.rx_packets"] + counts["nic.tx_packets"],
		"driver.polls": counts["driver.polls"], "netstack.rx_segments": counts["netstack.rx_segments"],
		"memsys.dram_kb": counts["memsys.dram_bytes"] / 1e3,
	}
	for _, c := range unitCosts {
		v := 0.0
		if last.countsProfiled {
			v = ratio(float64(byBucket[c.bucket]), units[c.unit]*nTraced)
		}
		m[c.name] = metricValue{v, "ns"}
	}
	return ok
}

// writeTraceFiles writes the spans as Chrome trace-event JSON and the
// raw CPU profile of each traced repetition beside them.
func writeTraceFiles(dir, wl string, seed int64, outs []*outcome, spans []span, meta map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", wl, seed))
	var files []string
	for i, o := range outs {
		if o.profile == nil {
			continue
		}
		name := fmt.Sprintf("%s-rep%d.cpu.pprof", base, i)
		if err := os.WriteFile(name, o.profile, 0o644); err != nil {
			return err
		}
		files = append(files, filepath.Base(name))
	}
	meta["cpu_profiles"] = files
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans, meta); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s.trace.json and %d profiles\n", base, len(files))
	return nil
}
