// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in nanoseconds and an event heap.
// All model components (cores, links, devices) schedule callbacks on the
// engine; nothing in the simulation reads wall-clock time, so a run with a
// fixed seed is exactly reproducible.
//
// Two programming styles are supported: plain event callbacks
// (Engine.At/After) and blocking processes (Engine.Go) that execute as
// runtime coroutines (iter.Pull) resumed one at a time by the engine,
// SimPy style, so determinism is preserved. A resume or a yield is one
// direct coroutine switch; the Go scheduler is not involved.
//
// The event queue is an inlined value-based 4-ary min-heap ordered by
// (at, sub, seq): events at the same instant dispatch in the order they
// were scheduled — sub is the clock value at the scheduling call and
// seq breaks the remaining ties in call order. Event records live in a
// slot arena recycled through a free list, so steady-state scheduling
// and dispatch allocate nothing; cancellation is lazy (a generation
// check at pop time) to keep Stop O(1) without disturbing the heap.
//
// Engines can also be ganged into a Group (see shard.go) for
// conservative parallel simulation: each engine becomes one shard
// running on its own goroutine, exchanging cross-shard events through
// mailboxes via Post/PostAfter and synchronizing on published clock
// horizons bounded by link latency.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is an absolute simulation timestamp in nanoseconds since the start
// of the run.
type Time int64

// Common time units, usable as time.Duration values in model code.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the time d after t. Negative results are clamped to t so a
// subtraction bug in a cost model cannot move the clock backwards.
func (t Time) Add(d time.Duration) Time {
	nt := t + Time(d)
	if nt < t && d > 0 { // overflow
		return Time(math.MaxInt64)
	}
	if nt < 0 {
		return t
	}
	return nt
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns the timestamp as a float number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the timestamp as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// heapEntry is one queued event in the 4-ary min-heap. The callback
// lives in the slot arena; the entry holds only ordering keys plus the
// (slot, gen) reference that validates it at pop time.
type heapEntry struct {
	at   Time
	sub  Time   // clock value at the scheduling call (secondary key)
	seq  uint64 // shard-composed FIFO tie-break among same-(at, sub) events
	slot int32
	gen  uint32
}

// less orders entries by (at, sub, seq). On a single engine sub is
// redundant — seq strictly increases per schedule and the clock never
// runs backwards, so (at, seq) alone reproduces scheduling order. The
// sub key exists for sharded runs: a cross-shard post carries its
// sender's scheduling time, so merging it into the receiver's heap
// lands it exactly where the serial engine would have dispatched it
// relative to events the receiver scheduled earlier or later.
func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sub != b.sub {
		return a.sub < b.sub
	}
	return a.seq < b.seq
}

// eventSlot is one arena record. gen increments every time the slot is
// freed, invalidating any heap entries and Timers still pointing at it.
type eventSlot struct {
	fn   func()
	gen  uint32
	next int32 // free-list link, -1 terminates
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	events   []heapEntry // 4-ary min-heap on (at, sub, seq)
	slots    []eventSlot
	freeHead int32 // head of the slot free list, -1 when empty
	live     int   // scheduled and not cancelled
	running  bool
	stopped  bool
	// Parked-process registry, insertion-ordered so Drain kills in a
	// deterministic sequence (map-order iteration would leak here).
	// procs maps each live process to its procList index; finish
	// swap-removes, which keeps the order a pure function of the run.
	procs    map[*Proc]int
	procList []*Proc
	tracer   *Tracer

	// Sharding state (see shard.go). group is nil on a standalone
	// engine, which keeps every field below cold: shard is 0, seqBase is
	// 0 (entry seq keys degenerate to the classic per-engine counter),
	// and the inbox/clock/hooks are never touched.
	group   *Group
	shard   int
	seqBase uint64 // shard<<56, folded into every entry's seq key
	// clock and inbox are read and written by peer shard goroutines
	// while this shard runs; both types synchronize internally.
	// octolint:shard-shared
	clock atomicTime
	// octolint:shard-shared
	inbox     mailbox
	syncHooks []func()

	// idleAt is the latest completion time of fire-and-forget work
	// (e.g. Pipe.Transfer with a nil callback). Instead of holding a
	// no-op event in the heap per transfer, RunUntilIdle advances the
	// clock here once the queue drains, preserving "the run ends when
	// the last byte has arrived" without per-transfer heap churn.
	idleAt Time

	// Executed counts dispatched events, for diagnostics and loop guards.
	Executed uint64
	// MaxEvents aborts the run (panic) if more than this many events are
	// dispatched; a guard against accidental event storms. Zero disables.
	MaxEvents uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{procs: make(map[*Proc]int), freeHead: -1}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the model and panics.
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	return e.insert(t, e.now, e.seqBase+e.seq, fn)
}

// insert allocates a slot for fn and pushes a heap entry with the given
// ordering key. Shared by At (local scheduling) and the mailbox drain
// (cross-shard posts carrying their sender's key).
func (e *Engine) insert(t, sub Time, key uint64, fn func()) Timer {
	slot := e.freeHead
	if slot >= 0 {
		e.freeHead = e.slots[slot].next
	} else {
		e.slots = append(e.slots, eventSlot{})
		slot = int32(len(e.slots) - 1)
	}
	s := &e.slots[slot]
	s.fn = fn
	e.push(heapEntry{at: t, sub: sub, seq: key, slot: slot, gen: s.gen})
	e.live++
	return Timer{eng: e, at: t, slot: slot, gen: s.gen}
}

// Post schedules fn at absolute time t on engine dst. With dst == e (or
// two engines driven from one goroutine) this is exactly At; when both
// engines are shards of one running Group the event crosses through
// dst's mailbox carrying this engine's scheduling key, so the receiver
// merges it into its heap in the order the serial engine would have
// used. The caller must respect the group's link floors: t must be at
// least the registered floor past this shard's published clock.
func (e *Engine) Post(dst *Engine, t Time, fn func()) {
	if dst == e || e.group == nil || dst.group != e.group {
		dst.At(t, fn)
		return
	}
	e.seq++
	dst.inbox.put(xpost{at: t, sub: e.now, seq: e.seqBase + e.seq, fn: fn})
}

// PostAfter schedules fn on dst at d past this engine's current time.
func (e *Engine) PostAfter(dst *Engine, d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Post(dst, e.now.Add(d), fn)
}

// After schedules fn to run d after the current time. Negative d is
// treated as zero.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// freeSlot recycles a slot onto the free list. Bumping gen invalidates
// the heap entry (if still queued) and every Timer handle for it.
func (e *Engine) freeSlot(slot int32) {
	s := &e.slots[slot]
	s.fn = nil
	s.gen++
	s.next = e.freeHead
	e.freeHead = slot
	e.live--
}

// push inserts an entry, sifting up through 4-ary parents.
func (e *Engine) push(ent heapEntry) {
	h := append(e.events, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ent.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
	e.events = h
}

// popMin removes and returns the minimum entry, sifting the last entry
// down through the up-to-four children of each node.
func (e *Engine) popMin() heapEntry {
	h := e.events
	min := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	e.events = h
	n := len(h)
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			if c+1 < n && h[c+1].less(h[m]) {
				m = c + 1
			}
			if c+2 < n && h[c+2].less(h[m]) {
				m = c + 2
			}
			if c+3 < n && h[c+3].less(h[m]) {
				m = c + 3
			}
			if !h[m].less(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return min
}

// purge discards cancelled entries from the top of the heap so callers
// can trust events[0] to be a live event.
func (e *Engine) purge() {
	for len(e.events) > 0 {
		ent := e.events[0]
		if e.slots[ent.slot].gen == ent.gen {
			return
		}
		e.popMin()
	}
}

// Timer is a handle to a scheduled event, allowing cancellation. The
// zero Timer is valid: never pending, Stop reports false.
type Timer struct {
	eng  *Engine
	at   Time
	slot int32
	gen  uint32
}

// Stop cancels the pending event. It reports whether the event was still
// pending (and is now cancelled). The heap entry is dropped lazily when
// it reaches the top of the queue.
func (t Timer) Stop() bool {
	if t.eng == nil || t.eng.slots[t.slot].gen != t.gen {
		return false
	}
	t.eng.freeSlot(t.slot)
	return true
}

// When returns the time the event was scheduled for.
func (t Timer) When() Time { return t.at }

// Pending reports whether the event has not yet fired or been cancelled.
func (t Timer) Pending() bool {
	return t.eng != nil && t.eng.slots[t.slot].gen == t.gen
}

// step dispatches the earliest pending event. It reports false when the
// event queue is empty.
func (e *Engine) step() bool {
	for {
		if len(e.events) == 0 {
			return false
		}
		ent := e.popMin()
		s := &e.slots[ent.slot]
		if s.gen != ent.gen { // cancelled: drop and keep looking
			continue
		}
		if ent.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ent.at
		e.Executed++
		if e.MaxEvents != 0 && e.Executed > e.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now))
		}
		fn := s.fn
		// Free before dispatch so fn can schedule into the recycled slot.
		e.freeSlot(ent.slot)
		fn()
		return true
	}
}

// Run dispatches events until the clock would pass `until` or no events
// remain. The clock is left at `until` (or at the last event if the queue
// drained earlier and Stop was not called).
func (e *Engine) Run(until Time) {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	if e.group != nil {
		panic("sim: Run called on a grouped engine; drive the shard group instead")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for !e.stopped {
		e.purge()
		if len(e.events) == 0 || e.events[0].at > until {
			break
		}
		e.step()
	}
	if !e.stopped && until > e.now {
		e.now = until
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d time.Duration) { e.Run(e.now.Add(d)) }

// RunUntilIdle dispatches events until none remain, then advances the
// clock over any outstanding fire-and-forget completions (stretchIdle)
// so it ends at the instant the simulation truly quiesces.
func (e *Engine) RunUntilIdle() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	if e.group != nil {
		panic("sim: RunUntilIdle called on a grouped engine; drive the shard group instead")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for !e.stopped && e.step() {
	}
	if !e.stopped && e.idleAt > e.now {
		e.now = e.idleAt
	}
}

// stretchIdle records that fire-and-forget work completes at t: the
// queue may drain earlier, but the simulation is not quiescent before
// t. Used by Pipe.Transfer instead of scheduling a no-op event.
func (e *Engine) stretchIdle(t Time) {
	if t > e.idleAt {
		e.idleAt = t
	}
}

// Stop makes the current Run/RunUntilIdle return after the event being
// dispatched completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.live }

// Drain terminates all parked processes. Call when a run is finished so
// process coroutines do not leak; after Drain the engine must not be
// used. Unwinding is synchronous: when Drain returns, every killed
// process's deferred calls have run and its coroutine is gone.
func (e *Engine) Drain() {
	for _, p := range e.procList {
		p.stop()
	}
	e.procs = make(map[*Proc]int)
	e.procList = nil
}

// ShardGroup returns the Group this engine belongs to, nil for a
// standalone (serial) engine.
func (e *Engine) ShardGroup() *Group { return e.group }

// Shard returns this engine's index within its group (0 when serial).
func (e *Engine) Shard() int { return e.shard }

// OnShardSync registers fn to run on every shard-sync barrier (the end
// of each Group.Run window, on the caller's goroutine). Subsystems that
// defer cross-shard bookkeeping — e.g. frame pools reclaiming frames
// whose delivery copy crossed to another shard — flush it here so
// metrics snapshots taken between windows match the serial engine
// exactly. No-op scheduling on a standalone engine: the hook is simply
// never called.
func (e *Engine) OnShardSync(fn func()) { e.syncHooks = append(e.syncHooks, fn) }

// ArenaSlots returns the total size of the event slot arena, and
// FreeSlots the length of its free list. live == ArenaSlots-FreeSlots
// is the number of scheduled, uncancelled events; regression tests use
// the pair to prove that lazily-cancelled timers do not leak slots.
func (e *Engine) ArenaSlots() int { return len(e.slots) }

// FreeSlots returns the current length of the slot free list.
func (e *Engine) FreeSlots() int {
	n := 0
	for s := e.freeHead; s >= 0; s = e.slots[s].next {
		n++
	}
	return n
}
