package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"ioctopus/internal/metrics"
)

// wireGbps is the testbed's 100 Gb/s link rate.
const wireGbps = 100

// windowDelta diffs two registry snapshots. Counters are cumulative,
// so the difference is the window's work; the pmd/ and driver counters
// are never zeroed by Cluster.ResetStats, which is why the benchmark
// never calls it. A nil before stands for a fresh cluster. Gauges keep
// their value at the end of the window, except the per-core busy time,
// which is cumulative although registered as a gauge.
func windowDelta(before, after []metrics.Sample) map[string]float64 {
	base := map[string]float64{}
	for _, s := range before {
		base[s.Name] = s.Value
	}
	d := make(map[string]float64, len(after))
	for _, s := range after {
		if s.Kind == metrics.KindCounter || strings.HasSuffix(s.Name, "/busy_seconds") {
			d[s.Name] = s.Value - base[s.Name]
		} else {
			d[s.Name] = s.Value
		}
	}
	return d
}

// sumMatch sums the values whose names match a path.Match pattern.
func sumMatch(d map[string]float64, pattern string) float64 {
	var total float64
	for name, v := range d {
		if ok, _ := path.Match(pattern, name); ok {
			total += v
		}
	}
	return total
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowCounts derives the per-layer simulated work counts of one
// measured window from the snapshots at its two ends. Counts cover both
// hosts unless their name says server.
func windowCounts(before, after []metrics.Sample, window time.Duration) map[string]float64 {
	d := windowDelta(before, after)
	events := sumMatch(d, "engine/events_executed")
	windowMS := float64(window) / 1e6
	busy := sumMatch(d, "server/kernel/core*/busy_seconds")
	var nCores float64
	for name := range d {
		if ok, _ := path.Match("server/kernel/core*/busy_seconds", name); ok {
			nCores++
		}
	}
	hits := sumMatch(d, "*/nic/pool/*/hits")
	llcHit := sumMatch(d, "*/mem/node*/llc_hit_bytes")
	polls := sumMatch(d, "*/driver/*/pmd/polls")
	return map[string]float64{
		"sim.events":                  events,
		"sim.events_per_sim_ms":       ratio(events, windowMS),
		"kernel.server_busy_frac":     ratio(busy, nCores*window.Seconds()),
		"nic.rx_packets":              sumMatch(d, "*/nic/rx_packets"),
		"nic.tx_packets":              sumMatch(d, "*/nic/pf*/tx/sent"),
		"nic.interrupts":              sumMatch(d, "*/nic/pf*/rx/interrupts") + sumMatch(d, "*/nic/pf*/tx/interrupts"),
		"nic.pool_hit_ratio":          ratio(hits, hits+sumMatch(d, "*/nic/pool/*/misses")),
		"driver.polls":                polls,
		"driver.empty_poll_ratio":     ratio(sumMatch(d, "*/driver/*/pmd/empty_polls"), polls),
		"netstack.rx_segments":        sumMatch(d, "*/stack/rx_segments"),
		"netstack.retransmits":        sumMatch(d, "*/stack/retx/retransmits"),
		"netstack.retx_timeouts":      sumMatch(d, "*/stack/retx/timeouts"),
		"memsys.llc_hit_ratio":        ratio(llcHit, llcHit+sumMatch(d, "*/mem/node*/llc_miss_bytes")),
		"memsys.dram_bytes":           sumMatch(d, "*/mem/node*/dram_read_bytes") + sumMatch(d, "*/mem/node*/dram_write_bytes"),
		"interconnect.discrete_bytes": sumMatch(d, "*/fabric/*/discrete_bytes"),
		"interconnect.fluid_bytes":    sumMatch(d, "*/fabric/*/fluid_bytes"),
		"faults.loss_drops":           sumMatch(d, "faults/loss_drops"),
	}
}

// checkBusy fails the rep if any server core was busy for longer than
// the simulated window.
func checkBusy(o *outcome, before, after []metrics.Sample, window time.Duration) {
	d := windowDelta(before, after)
	names := make([]string, 0, len(d))
	for name := range d {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if ok, _ := path.Match("server/kernel/core*/busy_seconds", name); ok && d[name] > window.Seconds()*(1+1e-9) {
			o.fail(checkBusyTime, "%s: busy %.6fs in a %.6fs window", name, d[name], window.Seconds())
		}
	}
}

// checkHandles checks the workload instances and adds their counts to
// o.counts.
func checkHandles(o *outcome, h *handles, window time.Duration) {
	var bytes float64
	for i, s := range h.streams {
		for _, e := range s.Errors() {
			o.fail(checkErrors, "stream %d: %s", i, e)
		}
		if s.Bytes() <= 0 {
			o.fail(checkProgress, "stream %d moved no bytes", i)
		}
		bytes += float64(s.Bytes())
	}
	var txns float64
	var p50s []time.Duration
	var p99 time.Duration
	for i, r := range h.rrs {
		for _, e := range r.Errors() {
			o.fail(checkErrors, "rr %d: %s", i, e)
		}
		if r.Transactions() == 0 {
			o.fail(checkProgress, "rr %d completed no transactions", i)
		}
		txns += float64(r.Transactions())
		p50s = append(p50s, r.Hist.Percentile(50))
		p99 = max(p99, r.Hist.Percentile(99))
	}
	gbps := metrics.Gbps(bytes, window)
	if gbps > wireGbps {
		o.fail(checkWire, "workloads.gbps %.3f exceeds the %d Gb/s wire", gbps, wireGbps)
	}
	o.counts["workloads.gbps"] = gbps
	o.counts["workloads.transactions"] = txns
	if len(p50s) > 0 {
		o.counts["workloads.rr_p50_us"] = float64(median(p50s)) / 1e3
		o.counts["workloads.rr_p99_us"] = float64(p99) / 1e3
	}
}

// outcomeLines renders what the workload instances produced, for the
// digest.
func outcomeLines(h *handles) []string {
	var lines []string
	for i, s := range h.streams {
		lines = append(lines, fmt.Sprintf("stream %d bytes %d errors %q", i, s.Bytes(), s.Errors()))
	}
	for i, r := range h.rrs {
		lines = append(lines, fmt.Sprintf("rr %d txns %d p50 %d p99 %d mean %d errors %q", i,
			r.Transactions(), r.Hist.Percentile(50), r.Hist.Percentile(99), r.Mean(), r.Errors()))
	}
	return lines
}

// digest hashes a registry snapshot, sorted by name, together with the
// workload outcome. Simulated output is deterministic, so every rep of
// a run must produce the same digest, and a commit that changes
// simulated output changes it.
func digest(samples []metrics.Sample, outcome []string) string {
	s := append([]metrics.Sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	lines := append([]string(nil), outcome...)
	sort.Strings(lines)
	h := sha256.New()
	for _, x := range s {
		fmt.Fprintf(h, "%s %s %s\n", x.Name, x.Kind, strconv.FormatFloat(x.Value, 'g', -1, 64))
	}
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// allocatedMB is the heap allocated since since was read.
func allocatedMB(since runtime.MemStats) float64 {
	return float64(memStats().TotalAlloc-since.TotalAlloc) / 1e6
}

// liveHeapMB forces a collection and reports the live heap. The second
// collection frees what sync.Pool victim caches kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	m := memStats()
	return float64(m.HeapAlloc) / 1e6
}

// startProfile starts a CPU profile into o.profile when traced and
// returns the function that stops it.
func startProfile(traced bool, o *outcome) func() {
	if !traced {
		return func() {}
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		o.fail(checkProfile, "cpu profile: %v", err)
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		o.profile = buf.Bytes()
	}
}

func median[T int64 | float64 | time.Duration](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
