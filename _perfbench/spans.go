package main

import (
	"encoding/json"
	"io"
	"syscall"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// simulator. Spans of one repetition share Rep; Parent is the index of
// the enclosing span, or -1.
type span struct {
	Name       string
	Rep        int
	Start, End time.Duration // wall-clock offsets from the recorder's origin
	CPU        time.Duration // process CPU time spent inside the span
	Parent     int
}

// cpuTime is the CPU time the process has used so far, user plus
// system, over all its threads. Unlike the wall clock it stands still
// while the hypervisor runs other guests on this guest's vCPUs, which
// on a shared host moves wall-clock timings by tens of percent within
// minutes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// recorder keeps spans in memory; they are written out once, at exit.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
	rep    int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// do times fn as a span named name, nested in whichever span is open,
// and returns the CPU time it took.
func (r *recorder) do(name string, fn func()) time.Duration {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Rep: r.rep, Start: time.Since(r.origin), Parent: parent})
	r.open = append(r.open, id)
	cpu0 := cpuTime()
	fn()
	r.spans[id].CPU = cpuTime() - cpu0
	r.spans[id].End = time.Since(r.origin)
	r.open = r.open[:len(r.open)-1]
	return r.spans[id].CPU
}

// selfTimes returns each span's duration minus its children's
// durations. The recorder nests spans strictly, so a span's children
// are disjoint and lie inside it.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// chromeEvent is one record of the Chrome trace-event format, the same
// format `octotrace -trace` writes, so the file opens in Perfetto.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChromeTrace exports the spans as complete ("X") events, one
// track per repetition, with each span's self time in its args. meta
// goes into the file's otherData.
func writeChromeTrace(w io.Writer, spans []span, meta map[string]any) error {
	self := selfTimes(spans)
	tr := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData,omitempty"`
	}{DisplayTimeUnit: "ms", OtherData: meta}
	tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", Args: map[string]any{"name": "perfbench"},
	})
	for i, s := range spans {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name:  s.Name,
			Cat:   "span",
			Phase: "X",
			TS:    float64(s.Start) / 1e3,
			Dur:   float64(s.End-s.Start) / 1e3,
			TID:   s.Rep,
			Args:  map[string]any{"self_us": float64(self[i]) / 1e3, "cpu_us": float64(s.CPU) / 1e3},
		})
	}
	return json.NewEncoder(w).Encode(tr)
}
