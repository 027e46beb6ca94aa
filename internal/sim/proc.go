package sim

import (
	"fmt"
	"runtime"
)

// procYield is the message a process goroutine sends back to the engine
// when it parks (blocks) or terminates.
type procYield struct {
	p        *Proc
	done     bool
	panicked any
}

// Proc is a simulated process: a goroutine whose execution is strictly
// interleaved with the event loop. At most one process (or event callback)
// runs at a time, so model code needs no locking and behaves
// deterministically.
//
// A process blocks by calling one of the park-based primitives (Sleep,
// Signal.Wait, Queue.Pop, ...). While parked it consumes no simulated time
// beyond what the wakeup condition implies.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	dead   bool
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
	// onExit callbacks run when the goroutine terminates for any reason —
	// normal return, panic, or a Kill that lands before the body ever ran
	// (when function-level defers do not exist yet). Join counting uses
	// this to stay accurate across crashes.
	onExit []func()
}

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
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan struct{}),
	}
	e.nprocs++
	e.procs = append(e.procs, p)
	go func() {
		var panicked any
		// The termination yield is sent from a goroutine-level defer so it
		// also runs when a killed process unwinds via runtime.Goexit.
		defer func() {
			p.dead = true
			// The engine is still blocked waiting for this goroutine's
			// yield, so onExit callbacks run under the same single-threaded
			// discipline as model code.
			for _, fn := range p.onExit {
				fn()
			}
			e.parked <- procYield{p: p, done: true, panicked: panicked}
		}()
		<-p.resume // wait for the first dispatch
		if p.killed {
			return
		}
		func() {
			defer func() { panicked = recover() }()
			fn(p)
		}()
	}()
	startLabel := ""
	if e.Trace != nil {
		startLabel = "start:" + name
	}
	e.scheduleProc(e.now, startLabel, p)
	return p
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
// It must only be called from the event loop (an event callback).
func (e *Engine) dispatch(p *Proc) {
	if p.dead {
		return
	}
	p.resume <- struct{}{}
	y := <-e.parked
	if y.done {
		e.nprocs--
	}
	if y.panicked != nil {
		panic(fmt.Sprintf("sim: process %q panicked: %v", y.p.name, y.panicked))
	}
}

// park suspends the calling process until the next dispatch. A process
// condemned by Engine.Kill exits here via runtime.Goexit, which runs its
// deferred functions (join-counter bumps, cleanup) before the goroutine-
// level defer reports termination to the event loop.
func (p *Proc) park() {
	p.eng.parked <- procYield{p: p}
	<-p.resume
	if p.killed {
		runtime.Goexit()
	}
}

// Kill condemns a process: at its next resume it unwinds via runtime.Goexit
// (running deferred functions) instead of continuing model code. Kill is
// asynchronous — it schedules a wake at the current time — and idempotent;
// killing a dead process is a no-op. It models a node crash taking down the
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
