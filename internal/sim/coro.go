//go:build go1.23

// The build tag gives this file the go1.23 language version, which iter.Pull
// needs, while go.mod stays at go 1.22 for the modules that build against
// this one.

package sim

import "iter"

// coro is a pooled coroutine: one iter.Pull goroutine that runs process
// bodies back to back. The engine resumes it with next and it hands control
// back by yielding, so a switch between the event loop and a process is a
// direct coroutine switch rather than a pair of channel handoffs. When a
// body finishes, the coroutine puts itself on the engine's idle list and
// waits for the next process bound to it.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// p is the process currently bound, nil while idle.
	p *Proc
	// stopped is set when yield reports that stop was called, so the
	// coroutine returns instead of rejoining the pool.
	stopped bool
}

// takeCoro returns an idle coroutine, creating one when the pool is empty.
func (e *Engine) takeCoro() *coro {
	if n := len(e.idle); n > 0 {
		co := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return co
	}
	if co := reuseReleased(); co != nil {
		return co
	}
	co := &coro{}
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		for {
			p := co.p
			p.run()
			p.co, co.p = nil, nil
			if co.stopped {
				return
			}
			p.eng.idle = append(p.eng.idle, co)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return co
}

// releaseIdle empties the engine's pool through releaseCoros, which ends
// the coroutines (freeing their stacks) in normal builds.
func (e *Engine) releaseIdle() {
	releaseCoros(e.idle)
	clear(e.idle)
	e.idle = e.idle[:0]
}
