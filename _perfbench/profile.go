package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one CPU-profile sample: its call stack as function
// names, leaf first, and the CPU time it stands for.
type stackSample struct {
	Funcs []string
	NS    int64
}

// parseProfile decodes a gzipped pprof protobuf CPU profile, as
// runtime/pprof writes it, into stacks. Inlined frames are expanded, so
// math.Exp inlined into an interconnect function still shows both.
// Only the fields a CPU profile needs are read; the rest are skipped.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs        []string
		sampleTypes [][2]int64 // (type, unit) string indices
		samples     []sample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> string index
	)
	err = forFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			err := forFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s sample
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendPacked(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	valueIdx := -1
	for i, vt := range sampleTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 && len(samples) > 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var funcs []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				funcs = append(funcs, str(funcName[fn]))
			}
		}
		out = append(out, stackSample{Funcs: funcs, NS: s.values[valueIdx]})
	}
	return out, nil
}

// forFields walks the top-level fields of one protobuf message. For a
// varint field v holds the value; for a length-delimited one b holds
// the bytes. Fixed-width fields are skipped.
func forFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// modules are the simulator packages that get a self-time bucket, named
// after their internal/<module> directory.
var modules = []string{
	"sim", "kernel", "memsys", "interconnect", "pcie", "device", "nic", "driver",
	"netstack", "eth", "faults", "metrics", "workloads", "experiments", "core",
	"nvme", "topology",
}

// Buckets that are not simulator modules.
const (
	bucketHandoff = "runtime.handoff"
	bucketGC      = "runtime.gc"
	bucketOther   = "runtime.other"
)

// allBuckets lists every bucket in report order.
func allBuckets() []string {
	return append(append([]string(nil), modules...), bucketHandoff, bucketGC, bucketOther)
}

// bucketMetric names a bucket's self-time metric: <module>.self_s for
// a simulator module, runtime.<bucket>_s for the rest.
func bucketMetric(b string) string {
	if strings.HasPrefix(b, "runtime.") {
		return b + "_s"
	}
	return b + ".self_s"
}

const modulePrefix = "ioctopus/internal/"

// Runtime functions that a goroutine handoff runs through: channel
// operations, parking and readying goroutines, and the scheduler loop.
var schedFuncs = []string{
	"chansend", "chanrecv", "closechan", "selectgo", "selectnb", "gopark", "goparkunlock",
	"goready", "ready", "park_m", "schedule", "findRunnable", "execute", "gogo",
	"mcall", "wakep", "startm", "stopm", "handoffp", "notesleep", "notewakeup",
	"futexsleep", "futexwakeup", "sellock", "selunlock", "runqput", "runqget",
	"runqgrab", "gosched_m", "goschedImpl", "goexit0", "send", "recv",
}

// GC and allocator functions.
var gcFuncs = []string{
	"mallocgc", "newobject", "makeslice", "growslice", "makemap", "newarray",
	"gcBgMarkWorker", "gcAssistAlloc", "gcDrain", "gcStart", "gcMarkDone",
	"gcMarkTermination", "bgsweep", "bgscavenge", "sweepone", "scanobject",
	"greyobject", "markroot", "scanstack", "memclrNoHeapPointers", "wbBufFlush",
	"gcWriteBarrier", "(*mheap)", "(*mcache)", "(*mcentral)", "(*mspan)",
	"(*gcWork)", "(*sweepLocked)", "(*pageAlloc)", "(*scavengerState)", "GC",
}

// runtimeFunc strips the runtime package from a frame name, reporting
// whether the frame is in the Go runtime at all.
func runtimeFunc(f string) (string, bool) {
	for _, p := range []string{"runtime.", "internal/runtime/", "runtime/internal/"} {
		if strings.HasPrefix(f, p) {
			return strings.TrimPrefix(f, p), true
		}
	}
	return "", false
}

func matchAny(name string, set []string) bool {
	for _, s := range set {
		if name == s || strings.HasPrefix(name, s) {
			return true
		}
	}
	return false
}

// moduleOf names the simulator module a frame belongs to, or "".
func moduleOf(f string) string {
	if !strings.HasPrefix(f, modulePrefix) {
		return ""
	}
	rest := f[len(modulePrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// bucketOf attributes one sample's stack (leaf first) to a bucket:
//
//   - a sample whose leaf is in Go scheduler or channel code, with a
//     sim.(*Proc) frame on the stack, is goroutine handoff, and so is
//     the parking half of a handoff (runtime.park_m);
//   - a sample in the garbage collector or allocator is GC;
//   - any other sample belongs to the innermost simulator module on the
//     stack, so library code such as math.Exp counts as its caller;
//   - whatever is left is runtime.other.
//
// The leaf is the run of runtime frames at the top of the stack, so a
// futex wake reached from chansend counts as channel code.
func bucketOf(stack []string) string {
	var leafSched, leafGC bool
	for _, f := range stack {
		name, ok := runtimeFunc(f)
		if !ok {
			break
		}
		leafSched = leafSched || matchAny(name, schedFuncs)
		leafGC = leafGC || matchAny(name, gcFuncs)
	}
	if leafSched && !leafGC {
		for _, f := range stack {
			// runtime.park_m is the second half of gopark, run on the
			// scheduler stack after the parking goroutine is detached,
			// so Go's traceback stops at runtime.mcall there and never
			// reaches the goroutine. In this process the goroutines
			// that park are the simulator's sim.Procs.
			if strings.HasPrefix(f, modulePrefix+"sim.(*Proc)") || f == "runtime.park_m" {
				return bucketHandoff
			}
		}
	}
	if leafGC {
		return bucketGC
	}
	for _, f := range stack {
		if name, ok := runtimeFunc(f); ok && matchAny(name, []string{"gcBgMarkWorker", "bgsweep", "bgscavenge"}) {
			return bucketGC
		}
	}
	for _, f := range stack {
		if m := moduleOf(f); m != "" {
			for _, known := range modules {
				if m == known {
					return m
				}
			}
		}
	}
	return bucketOther
}

// attribute sums sample CPU time per bucket. The buckets partition the
// samples, so they add up to the total exactly.
func attribute(samples []stackSample) (byBucket map[string]int64, total int64) {
	byBucket = map[string]int64{}
	for _, s := range samples {
		byBucket[bucketOf(s.Funcs)] += s.NS
		total += s.NS
	}
	return byBucket, total
}
