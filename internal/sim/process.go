package sim

import (
	"fmt"
	"iter"
	"time"
)

// Proc is a simulated process: model code written in a blocking style
// (Sleep, Wait, queue Get/Put) that runs as a runtime coroutine
// (iter.Pull). The engine resumes exactly one process at a time, and a
// resume or yield is one direct coroutine switch, not a trip through
// the Go scheduler, so process code needs no locking and runs
// deterministically.
type Proc struct {
	eng     *Engine
	name    string
	next    func() (struct{}, bool) // engine -> process: run to the next yield
	stop    func()                  // kill: unwind the process before returning
	yieldFn func(struct{}) bool     // process -> engine; false once stopped
	// resumeFn caches the resume method value so the (very frequent)
	// Sleep/Wait/Broadcast paths don't allocate a closure per call.
	resumeFn func()
}

// killedError is the panic value used to unwind a killed process.
type killedError struct{ name string }

func (k killedError) Error() string { return "sim: process " + k.name + " killed" }

// Go starts fn as a simulated process at the current simulation time.
// The process begins running when the engine dispatches its start event.
// A panic in fn (other than the kill unwind) propagates out of the
// resume that ran it, and so out of Engine.Run.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.resumeFn = p.resume
	e.procs[p] = len(e.procList)
	e.procList = append(e.procList, p)
	// A coroutine stopped before its first resume never runs its body,
	// so a Drain before the start event still unwinds the process.
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedError); ok {
					return // silent unwind of a killed process
				}
				panic(r)
			}
		}()
		p.yieldFn = yield
		fn(p)
		p.finish()
	})
	e.After(0, p.resumeFn)
	return p
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name (diagnostics only).
func (p *Proc) Name() string { return p.name }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// resume switches to the process coroutine and returns when the process
// yields or finishes. Must run in engine context, which may be any
// goroutine (a Group shard's, say) as long as no two resume the process
// at once. Resuming a finished or killed process is a no-op.
func (p *Proc) resume() { p.next() }

// yield returns control to the engine. The process must have arranged to
// be resumed (scheduled a wakeup or registered on a signal/queue) before
// calling yield, or it will sleep forever. If the process is killed
// while parked, yield unwinds it with a killedError panic.
func (p *Proc) yield() {
	if !p.yieldFn(struct{}{}) {
		panic(killedError{p.name})
	}
}

// finish unregisters a process whose body has returned.
func (p *Proc) finish() {
	if i, ok := p.eng.procs[p]; ok {
		last := len(p.eng.procList) - 1
		moved := p.eng.procList[last]
		p.eng.procList[i] = moved
		p.eng.procs[moved] = i
		p.eng.procList[last] = nil
		p.eng.procList = p.eng.procList[:last]
		delete(p.eng.procs, p)
	}
}

// Resume hands control back to a process parked with Yield and returns
// when that process yields again or finishes. It must be invoked from
// engine event context (an event callback, or passed as a completion
// callback to a component that fires it from one) or from another
// process's code, which is then suspended until the resumed process
// yields, so only one process runs at a time.
func (p *Proc) Resume() { p.resume() }

// ResumeFunc returns the cached resume callback (the same function every
// call). Components that repeatedly pass "resume this process" as a
// completion callback should use it instead of the method value
// p.Resume, which allocates a fresh closure at every use site.
func (p *Proc) ResumeFunc() func() { return p.resumeFn }

// Yield parks the process until something calls Resume. The caller must
// have arranged for a Resume before yielding (registered a callback,
// scheduled an event) or the process sleeps forever.
func (p *Proc) Yield() { p.yield() }

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.After(d, p.resumeFn)
	p.yield()
}

// SleepUntil suspends the process until absolute time t. If t is in the
// past the process continues immediately (after a zero-delay yield).
func (p *Proc) SleepUntil(t Time) {
	if t < p.eng.Now() {
		t = p.eng.Now()
	}
	p.eng.At(t, p.resumeFn)
	p.yield()
}

// Signal is a broadcast condition: processes Wait on it and a Broadcast
// (or Pulse) wakes them. There is no stored state; a Broadcast with no
// waiters is a no-op, like sync.Cond.
type Signal struct {
	eng     *Engine
	waiters []*Proc
}

// NewSignal returns a Signal bound to the engine.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait suspends the process until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.yield()
}

// Broadcast wakes all current waiters, in FIFO order, at the current time.
func (s *Signal) Broadcast() {
	// After only schedules the resume events; no process code runs here,
	// so nothing can re-enter Wait while we iterate. That makes it safe
	// to keep the backing array for reuse (cleared so it doesn't pin
	// the woken processes) instead of allocating a fresh one per cycle.
	for _, p := range s.waiters {
		s.eng.After(0, p.resumeFn)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Waiters returns the number of processes currently waiting.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Gate is a latched condition: Open releases all current and future
// waiters until Close is called. Useful for "link up" style conditions.
type Gate struct {
	sig  *Signal
	open bool
}

// NewGate returns a Gate, initially closed.
func NewGate(e *Engine) *Gate { return &Gate{sig: NewSignal(e)} }

// Wait blocks the process until the gate is open.
func (g *Gate) Wait(p *Proc) {
	for !g.open {
		g.sig.Wait(p)
	}
}

// Open opens the gate, releasing waiters.
func (g *Gate) Open() {
	if !g.open {
		g.open = true
		g.sig.Broadcast()
	}
}

// Close closes the gate; subsequent Wait calls block.
func (g *Gate) Close() { g.open = false }

// IsOpen reports whether the gate is open.
func (g *Gate) IsOpen() bool { return g.open }

// Semaphore is a counting semaphore for processes.
type Semaphore struct {
	eng   *Engine
	avail int
	sig   *Signal
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative semaphore size %d", n))
	}
	return &Semaphore{eng: e, avail: n, sig: NewSignal(e)}
}

// Acquire takes one permit, blocking the process until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.avail == 0 {
		s.sig.Wait(p)
	}
	s.avail--
}

// TryAcquire takes a permit without blocking; it reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.avail == 0 {
		return false
	}
	s.avail--
	return true
}

// Release returns one permit and wakes waiters.
func (s *Semaphore) Release() {
	s.avail++
	s.sig.Broadcast()
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.avail }
