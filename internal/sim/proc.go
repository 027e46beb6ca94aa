package sim

import "fmt"

// Proc is a simulated process: a coroutine whose execution is strictly
// interleaved with the event loop. At most one process (or event callback)
// runs at a time, so model code needs no locking and behaves
// deterministically.
//
// A process blocks by calling one of the park-based primitives (Sleep,
// Signal.Wait, Queue.Pop, ...). While parked it consumes no simulated time
// beyond what the wakeup condition implies.
type Proc struct {
	eng  *Engine
	name string
	fn   func(p *Proc)
	// co is the pooled coroutine running the body, bound at the first
	// dispatch and released when the body ends.
	co   *coro
	dead bool
	// killed marks a process condemned by Engine.Kill; it exits at its
	// next resume instead of running model code.
	killed bool
	// wakeLabel and sleep0Label are built lazily (and only while Trace is
	// installed) so the wake fast path never concatenates strings per
	// event in untraced runs.
	wakeLabel   string
	sleep0Label string
	// waiting, when non-nil, records the condition wait the process is
	// parked on; the watchdog reads it to diagnose quiescent simulations.
	// It always points at waitBuf, which is reused across parks so the
	// park fast path allocates nothing.
	waiting *waitState
	waitBuf waitState
	// onExit callbacks run when the process terminates for any reason —
	// normal return, panic, or a Kill that lands before the body ever ran
	// (when function-level defers do not exist yet). Join counting uses
	// this to stay accurate across crashes.
	onExit []func()
}

// procKilled is the panic value park raises in a killed process. The
// process wrapper recovers it as a normal exit; unwinding runs the body's
// deferred calls on the way. Model code never calls recover, so nothing
// in between swallows it.
type procKilled struct{}

// Name returns the label given at spawn time.
func (p *Proc) Name() string { return p.name }

// Dead reports whether the process has terminated or been condemned by
// Engine.Kill.
func (p *Proc) Dead() bool { return p.dead || p.killed }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Go spawns a process. fn starts executing at the current simulation time,
// after already-queued events at this time have run.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	e.addProc(p)
	startLabel := ""
	if e.Trace != nil {
		startLabel = "start:" + name
	}
	e.scheduleProc(e.now, startLabel, p)
	return p
}

// addProc records a spawned process, first dropping dead entries in place
// once they outnumber live ones. Spawn order is kept, so diagnoses list
// blocked processes in the same order either way.
func (e *Engine) addProc(p *Proc) {
	if e.ndead > 32 && 2*e.ndead > len(e.procs) {
		keep := e.procs[:0]
		for _, q := range e.procs {
			if !q.dead {
				keep = append(keep, q)
			}
		}
		clear(e.procs[len(keep):])
		e.procs = keep
		e.ndead = 0
	}
	e.procs = append(e.procs, p)
}

// run executes the body on the process's coroutine and then finishes the
// process. A kill unwinds the body as a procKilled panic, which ends the
// process normally; any other panic is kept for dispatch to re-raise on
// the event loop once the exit callbacks have run.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				p.eng.procPanic = r
			}
		}
		p.exit()
	}()
	p.fn(p)
}

// exit marks the process dead and runs its exit callbacks. The event loop
// is still waiting on this dispatch, so the callbacks run under the same
// single-threaded discipline as model code.
func (p *Proc) exit() {
	p.dead = true
	p.fn = nil
	p.waiting = nil
	p.waitBuf = waitState{}
	p.eng.ndead++
	for _, fn := range p.onExit {
		fn()
	}
	p.onExit = nil
}

// wakeLbl returns the process's wake label for traced engines ("" when no
// Trace is installed, skipping the per-wake string concatenation).
func (p *Proc) wakeLbl() string {
	if p.eng.Trace == nil {
		return ""
	}
	if p.wakeLabel == "" {
		p.wakeLabel = "wake:" + p.name
	}
	return p.wakeLabel
}

// sleep0Lbl is wakeLbl for zero-length sleeps.
func (p *Proc) sleep0Lbl() string {
	if p.eng.Trace == nil {
		return ""
	}
	if p.sleep0Label == "" {
		p.sleep0Label = "sleep0:" + p.name
	}
	return p.sleep0Label
}

// dispatch resumes p and blocks the engine until p parks or terminates.
// It must only be called from the event loop (an event callback) or from
// Close. A process takes a coroutine at its first dispatch; one killed
// before then never runs its body, and finishes inline.
func (e *Engine) dispatch(p *Proc) {
	if p.dead {
		return
	}
	co := p.co
	if co == nil {
		if p.killed {
			p.exit()
			return
		}
		co = e.takeCoro()
		co.p = p
		p.co = co
	}
	co.next()
	if r := e.procPanic; r != nil {
		e.procPanic = nil
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
	}
}

// park suspends the calling process until the next dispatch. A process
// condemned by Engine.Kill (or whose coroutine is being stopped) unwinds
// from here by panicking with procKilled, which runs its deferred functions
// (join-counter bumps, cleanup) before the process wrapper reports the
// exit. It is not runtime.Goexit: iter.Pull hands a Goexit inside the
// coroutine on to the caller of next, which is the event loop.
func (p *Proc) park() {
	if !p.co.yield(struct{}{}) {
		p.co.stopped = true
		p.killed = true
	}
	if p.killed {
		panic(procKilled{})
	}
}

// Kill condemns a process: at its next resume it unwinds (running deferred
// functions) instead of continuing model code. Kill is asynchronous — it
// schedules a wake at the current time — and idempotent; killing a dead
// process is a no-op. It models a node crash taking down the
// processes bound to it: any condition the process was waiting on is simply
// abandoned (primitives tolerate dead waiters).
func (e *Engine) Kill(p *Proc) {
	if p == nil || p.dead || p.killed {
		return
	}
	p.killed = true
	e.scheduleProc(e.now, "kill:"+p.name, p)
}

// OnExit registers a callback invoked when the process terminates —
// normal completion, panic, or Kill, including a Kill that lands before
// the body's first instruction. Callbacks run in registration order,
// before the engine learns of the termination.
func (p *Proc) OnExit(fn func()) { p.onExit = append(p.onExit, fn) }

// parkWaiting is park with a watchdog annotation: while parked, the process
// is reported by Engine.BlockedWaiters as blocked on the given condition.
func (p *Proc) parkWaiting(kind string, detail func() string) {
	p.waitBuf = waitState{kind: kind, detail: detail}
	p.waiting = &p.waitBuf
	p.park()
	p.waiting = nil
	p.waitBuf = waitState{}
}

// parkWaitingCounter is parkWaiting for counter waits: the annotation is
// carried as plain fields instead of a closure, so the Portals counting-
// event hot path (CT waits fire per message) allocates nothing.
func (p *Proc) parkWaitingCounter(c *Counter, target int64) {
	p.waitBuf = waitState{kind: "counter", ctr: c, target: target}
	p.waiting = &p.waitBuf
	p.park()
	p.waiting = nil
	p.waitBuf = waitState{}
}

// wake schedules a dispatch of p at the engine's current time. It is the
// building block used by all synchronization primitives.
func (p *Proc) wake(label string) {
	p.eng.scheduleProc(p.eng.now, label, p)
}

// Sleep suspends the process for duration d of simulated time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		// Still yield, so that a zero-length sleep is a scheduling point.
		p.wake(p.sleep0Lbl())
		p.park()
		return
	}
	e := p.eng
	e.scheduleProc(e.now+d, p.wakeLbl(), p)
	p.park()
}

// SleepUntil suspends the process until absolute time t. If t is in the
// past it panics.
func (p *Proc) SleepUntil(t Time) {
	p.Sleep(t - p.eng.Now())
}

// Yield reschedules the process at the current time, letting other
// same-time events run first.
func (p *Proc) Yield() { p.Sleep(0) }
