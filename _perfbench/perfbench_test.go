package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"ioctopus/internal/metrics"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "rep", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "build", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "measure", Start: 40 * ms, End: 90 * ms, Parent: 0},
		{Name: "inner", Start: 50 * ms, End: 60 * ms, Parent: 2},
		{Name: "inner2", Start: 60 * ms, End: 75 * ms, Parent: 2},
	}
	want := []time.Duration{100*ms - 20*ms - 50*ms, 20 * ms, 50*ms - 10*ms - 15*ms, 10 * ms, 15 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNests(t *testing.T) {
	r := newRecorder()
	r.do("outer", func() {
		r.do("a", func() {})
		r.do("b", func() { r.do("c", func() {}) })
	})
	parents := map[string]int{}
	for _, s := range r.spans {
		parents[s.Name] = s.Parent
		if s.End < s.Start {
			t.Errorf("%s ends before it starts", s.Name)
		}
	}
	if parents["outer"] != -1 || parents["a"] != 0 || parents["b"] != 0 || parents["c"] != 2 {
		t.Errorf("parents = %v", parents)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, r.spans, map[string]any{"nproc": 2}); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if n := len(tr.TraceEvents); n != 5 || tr.TraceEvents[1].Phase != "X" {
		t.Errorf("trace events = %+v", tr.TraceEvents)
	}
}

func TestBucketOf(t *testing.T) {
	const (
		proc  = "ioctopus/internal/sim.(*Proc).yield"
		core  = "ioctopus/internal/kernel.(*Core).start.func1"
		inter = "ioctopus/internal/interconnect.(*Fabric).latency"
	)
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"channel send under a Proc", []string{"runtime.lock2", "runtime.chansend", "runtime.chansend1", proc, core}, bucketHandoff},
		{"futex wake reached from a handoff", []string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.wakep", "runtime.ready", "runtime.goready", "runtime.send", "runtime.chansend1", "ioctopus/internal/sim.(*Proc).resume"}, bucketHandoff},
		{"park half of a handoff", []string{"runtime.casgstatus", "runtime.execute", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, bucketHandoff},
		{"channel op outside a Proc", []string{"runtime.chansend1", "ioctopus/internal/nic.(*Queue).post"}, "nic"},
		{"library code counts as its caller", []string{"math.Exp", inter, "ioctopus/internal/sim.(*Engine).step"}, "interconnect"},
		{"innermost module wins", []string{"ioctopus/internal/memsys.(*System).DMAWrite", "ioctopus/internal/nic.(*Queue).deliver", "ioctopus/internal/sim.(*Engine).step"}, "memsys"},
		{"allocation", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "ioctopus/internal/netstack.(*Socket).Send", proc}, bucketGC},
		{"lock inside malloc is not handoff", []string{"runtime.lock2", "runtime.mallocgc", "runtime.growslice", proc}, bucketGC},
		{"background mark worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, bucketGC},
		{"unknown module falls outward", []string{"ioctopus/internal/lint.Run", "ioctopus/internal/driver.(*Standard).poll"}, "driver"},
		{"nothing simulator", []string{"syscall.Syscall", "os.(*File).Write", "main.main"}, bucketOther},
		{"idle thread", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.mPark", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.mstart1", "runtime.mstart"}, bucketOther},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("%s: bucket %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributeSumsToTotal(t *testing.T) {
	samples := []stackSample{
		{[]string{"runtime.chansend", "ioctopus/internal/sim.(*Proc).yield"}, 10},
		{[]string{"math.Exp", "ioctopus/internal/interconnect.(*Fabric).x"}, 20},
		{[]string{"runtime.mallocgc"}, 30},
		{[]string{"main.main"}, 40},
	}
	by, total := attribute(samples)
	var sum int64
	for _, b := range allBuckets() {
		sum += by[b]
	}
	if total != 100 || sum != total {
		t.Errorf("buckets sum to %d of %d", sum, total)
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 1.0
	for time.Now().Before(deadline) {
		x = spin(x)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sawSpin bool
	var total int64
	for _, s := range samples {
		total += s.NS
		for _, f := range s.Funcs {
			sawSpin = sawSpin || strings.HasSuffix(f, ".spin")
		}
	}
	if len(samples) == 0 || total <= 0 {
		t.Fatalf("no samples (x=%v)", x)
	}
	if !sawSpin {
		t.Errorf("spin never sampled in %d stacks; first: %v", len(samples), samples[0].Funcs)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed without error")
	}
}

//go:noinline
func spin(x float64) float64 {
	for i := 0; i < 1000; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

func TestWindowDelta(t *testing.T) {
	before := []metrics.Sample{
		{Name: "server/nic/rx_packets", Kind: metrics.KindCounter, Value: 10},
		{Name: "server/kernel/core0/busy_seconds", Kind: metrics.KindGauge, Value: 0.5},
		{Name: "server/nic/flow_rules", Kind: metrics.KindGauge, Value: 3},
	}
	after := []metrics.Sample{
		{Name: "server/nic/rx_packets", Kind: metrics.KindCounter, Value: 25},
		{Name: "server/kernel/core0/busy_seconds", Kind: metrics.KindGauge, Value: 0.75},
		{Name: "server/nic/flow_rules", Kind: metrics.KindGauge, Value: 4},
		{Name: "server/driver/eth0/pmd/polls", Kind: metrics.KindCounter, Value: 7},
	}
	d := windowDelta(before, after)
	want := map[string]float64{
		"server/nic/rx_packets":            15,
		"server/kernel/core0/busy_seconds": 0.25,
		"server/nic/flow_rules":            4,
		"server/driver/eth0/pmd/polls":     7,
	}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("%s = %v, want %v", k, d[k], v)
		}
	}
	o := &outcome{}
	checkBusy(o, before, after, 200*time.Millisecond)
	if len(o.problems) != 1 || o.problems[0].check != checkBusyTime {
		t.Errorf("0.25s busy in a 0.2s window not caught: %v", o.problems)
	}
}

func TestDigestStable(t *testing.T) {
	a := []metrics.Sample{
		{Name: "b", Kind: metrics.KindCounter, Value: 2},
		{Name: "a", Kind: metrics.KindGauge, Value: 0.1},
	}
	b := []metrics.Sample{a[1], a[0]}
	if digest(a, []string{"x", "y"}) != digest(b, []string{"y", "x"}) {
		t.Error("digest depends on input order")
	}
	if got := digest(a, nil); len(got) != 16 || strings.Trim(got, "0123456789abcdef") != "" {
		t.Errorf("digest %q is not 16 hex digits", got)
	}
	c := []metrics.Sample{a[0], {Name: "a", Kind: metrics.KindGauge, Value: 0.1000000001}}
	if digest(a, nil) == digest(c, nil) {
		t.Error("digest misses a change in the last digits")
	}
	if digest(a, []string{"stream 0 bytes 1"}) == digest(a, []string{"stream 0 bytes 2"}) {
		t.Error("digest misses a change in the workload outcome")
	}
}

// TestMetricNames checks that every metric the benchmark reports has a
// valid name, and that the two sets match BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	o := &outcome{setup: time.Millisecond, wall: time.Second, simMS: 10, window: time.Second, counts: map[string]float64{}}
	e2e := map[string]metricValue{}
	endToEnd(e2e, []*outcome{o})
	layer := map[string]metricValue{}
	perLayer(layer, []*outcome{o}, nil)

	for _, m := range []map[string]metricValue{e2e, layer} {
		for name, v := range m {
			if !metricName.MatchString(name) {
				t.Errorf("invalid metric name %q", name)
			}
			if v.Unit == "" {
				t.Errorf("%s has no unit", name)
			}
		}
	}
	for _, bad := range []string{"", "a b", "x/y", "_lead", "ü"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted as a metric name", bad)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, m map[string]metricValue, listed []struct{ Name, Unit string }) {
		var got, want []string
		for name, v := range m {
			got = append(got, name+" "+v.Unit)
		}
		for _, l := range listed {
			want = append(want, l.Name+" "+l.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Errorf("%s: reported %v, BENCHMARK.json lists %v", what, got, want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: reported %q, BENCHMARK.json lists %q", what, got[i], want[i])
			}
		}
	}
	same("end_to_end", e2e, spec.EndToEnd)
	same("per_layer", layer, spec.PerLayer)
}
