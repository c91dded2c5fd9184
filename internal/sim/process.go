package sim

import (
	"fmt"
	"time"
)

// Proc is a simulated process: model code written in a blocking style
// (Sleep, Wait, queue Get/Put) that runs on its own goroutine. The engine
// resumes exactly one process at a time, so process code needs no locking
// and runs deterministically.
type Proc struct {
	eng      *Engine
	name     string
	wake     chan struct{} // engine -> process: resume
	park     chan struct{} // process -> engine: yielded or finished
	killed   chan struct{}
	killSent bool // engine-side: killed channel closed
	dead     bool // process-side: unwound or finished
	// resumeFn caches the resume method value so the (very frequent)
	// Sleep/Wait/Broadcast paths don't allocate a closure per call.
	resumeFn func()
}

// killedError is the panic value used to unwind a killed process.
type killedError struct{ name string }

func (k killedError) Error() string { return "sim: process " + k.name + " killed" }

// Go starts fn as a simulated process at the current simulation time.
// The process begins running when the engine dispatches its start event.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		wake:   make(chan struct{}),
		park:   make(chan struct{}),
		killed: make(chan struct{}),
	}
	p.resumeFn = p.resume
	e.procs[p] = len(e.procList)
	e.procList = append(e.procList, p)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedError); ok {
					p.dead = true
					return // silent unwind of a killed process
				}
				panic(r)
			}
		}()
		// Wait for the start event like yield waits for a resume, so a
		// Drain before the process ever ran still unwinds it.
		select {
		case <-p.wake:
		case <-p.killed:
			panic(killedError{p.name})
		}
		fn(p)
		p.finish()
	}()
	e.After(0, p.resumeFn)
	return p
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name (diagnostics only).
func (p *Proc) Name() string { return p.name }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// resume hands control to the process goroutine and blocks the engine
// until the process yields or finishes. Must run in engine context.
func (p *Proc) resume() {
	if p.dead {
		return
	}
	p.wake <- struct{}{}
	<-p.park
}

// yield returns control to the engine. The process must have arranged to
// be resumed (scheduled a wakeup or registered on a signal/queue) before
// calling yield, or it will sleep forever.
func (p *Proc) yield() {
	p.park <- struct{}{}
	select {
	case <-p.wake:
	case <-p.killed:
		panic(killedError{p.name})
	}
}

// finish marks the process complete and releases the engine.
func (p *Proc) finish() {
	p.dead = true
	if i, ok := p.eng.procs[p]; ok {
		last := len(p.eng.procList) - 1
		moved := p.eng.procList[last]
		p.eng.procList[i] = moved
		p.eng.procs[moved] = i
		p.eng.procList[last] = nil
		p.eng.procList = p.eng.procList[:last]
		delete(p.eng.procs, p)
	}
	p.park <- struct{}{}
}

// kill unblocks a parked process and unwinds it. Engine context only.
// The process goroutine marks itself dead while unwinding; kill only
// tracks (engine-side) that the channel is closed, so the two sides
// never write shared state concurrently.
func (p *Proc) kill() {
	if p.killSent {
		return
	}
	p.killSent = true
	close(p.killed)
}

// Resume hands control back to a process parked with Yield. It must be
// invoked from engine event context (an event callback, or passed as a
// completion callback to a component that fires it from one).
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
