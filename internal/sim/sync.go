package sim

import "fmt"

// Signal is a broadcast condition variable. Wait parks the calling process
// until the next Broadcast. There is no lost-wakeup hazard: because model
// code is single-threaded, a process is either parked on the signal or it
// is not; Broadcast wakes exactly the set of currently parked waiters.
type Signal struct {
	eng     *Engine
	waiters []*Proc
	fires   uint64
}

// NewSignal creates a Signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.parkWaiting("signal", nil)
}

// Broadcast wakes every currently waiting process. Waiters resume in the
// order they called Wait.
func (s *Signal) Broadcast() {
	s.fires++
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		w.wake("signal")
	}
}

// Waiters reports how many processes are parked on the signal.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Fires reports how many times Broadcast has been called.
func (s *Signal) Fires() uint64 { return s.fires }

// Counter is a monotonic event counter with threshold waits, modeled on
// Portals-4 counting events. Processes can park until the counter reaches
// a target value.
type Counter struct {
	eng     *Engine
	value   int64
	waiters []ctWaiter
}

type ctWaiter struct {
	p      *Proc
	target int64
	// done, when non-nil, is set true before the wake when the wait is
	// satisfied — deadline waits use it to tell satisfaction from timeout.
	done *bool
}

// NewCounter creates a Counter bound to e.
func NewCounter(e *Engine) *Counter { return &Counter{eng: e} }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.value }

// Add increments the counter by n (n ≥ 0) and wakes any waiter whose
// target is now satisfied.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("sim: Counter.Add with negative increment")
	}
	c.value += n
	if n == 0 {
		return
	}
	rest := c.waiters[:0]
	for _, w := range c.waiters {
		if c.value >= w.target {
			if w.done != nil {
				*w.done = true
			}
			w.p.wake("ctwait")
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
}

// WaitGE parks p until the counter value is ≥ target. Returns immediately
// if already satisfied.
func (c *Counter) WaitGE(p *Proc, target int64) {
	if c.value >= target {
		return
	}
	c.waiters = append(c.waiters, ctWaiter{p: p, target: target})
	p.parkWaitingCounter(c, target)
}

// WaitGEUntil parks p until the counter value is ≥ target or the absolute
// deadline passes, whichever comes first. It reports whether the target
// was reached (false = timed out). A deadline at or before now fails
// immediately unless the target is already satisfied.
func (c *Counter) WaitGEUntil(p *Proc, target int64, deadline Time) bool {
	if c.value >= target {
		return true
	}
	if deadline <= c.eng.Now() {
		return false
	}
	done := false
	c.waiters = append(c.waiters, ctWaiter{p: p, target: target, done: &done})
	ev := c.eng.ScheduleNamed(deadline, "ctwait.deadline", func() {
		if done {
			return
		}
		for i := range c.waiters {
			if c.waiters[i].done == &done {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				break
			}
		}
		p.wake("ctwait.timeout")
	})
	p.parkWaiting("counter", func() string {
		return fmt.Sprintf("value=%d target=%d deadline=%v", c.value, target, deadline)
	})
	if done {
		ev.Cancel()
	}
	return done
}

// Queue is an unbounded FIFO connecting producers and consumers.
// Push never blocks; Pop parks until an item is available.
type Queue[T any] struct {
	eng     *Engine
	items   []T
	waiters []*Proc
}

// NewQueue creates a Queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{eng: e} }

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push appends v and wakes one waiting consumer, if any. Waiters killed
// while parked (a crashed node's service loops) are skipped and discarded —
// waking one would consume the wakeup without consuming the item, leaving
// live consumers parked forever behind a dead one.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if w.Dead() {
			continue
		}
		w.wake("queue")
		break
	}
}

// Pop removes and returns the head item, parking p while the queue is
// empty. Consumers are served FIFO.
func (q *Queue[T]) Pop(p *Proc) T {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.park()
	}
	v := q.items[0]
	// Avoid retaining popped elements.
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	return v
}

// TryPop removes the head item without blocking. ok is false when empty.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	v = q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	return v, true
}

// Resource is a counting semaphore with FIFO admission, used to model
// contended hardware resources (DMA engines, switch ports, CPU cores).
type Resource struct {
	eng      *Engine
	capacity int64
	inUse    int64
	waiters  []*resWaiter
}

type resWaiter struct {
	p       *Proc
	n       int64
	granted bool
	parked  bool
}

// NewResource creates a Resource with the given capacity.
func NewResource(e *Engine, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: Resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse returns the currently acquired amount.
func (r *Resource) InUse() int64 { return r.inUse }

// Available returns the capacity not currently acquired.
func (r *Resource) Available() int64 { return r.capacity - r.inUse }

// Acquire parks p until n units are available, then takes them.
// Admission is strictly FIFO to avoid starvation and preserve determinism.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 || n > r.capacity {
		panic("sim: Resource.Acquire with invalid amount")
	}
	// Uncontended fast path: no queue and enough capacity means admit()
	// would grant immediately — take the units without a waiter record.
	if len(r.waiters) == 0 && r.capacity-r.inUse >= n {
		r.inUse += n
		return
	}
	w := &resWaiter{p: p, n: n}
	r.waiters = append(r.waiters, w)
	r.admit()
	if w.granted {
		return
	}
	// A process killed while parked here unwinds from park (a procKilled
	// panic), which runs this frame's defers: units granted in the same
	// instant as the kill are returned, an ungranted request is withdrawn. Without this, a
	// crashed node's work-groups would pin semaphore capacity forever.
	defer func() {
		if !p.killed {
			return
		}
		if w.granted {
			r.inUse -= w.n
			r.admit()
			return
		}
		for i, x := range r.waiters {
			if x == w {
				r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
				break
			}
		}
	}()
	for !w.granted {
		w.parked = true
		p.parkWaiting("resource", func() string {
			return fmt.Sprintf("need=%d available=%d", n, r.capacity-r.inUse)
		})
		w.parked = false
	}
}

// Release returns n units and admits queued waiters in FIFO order.
func (r *Resource) Release(n int64) {
	if n <= 0 || n > r.inUse {
		panic("sim: Resource.Release with invalid amount")
	}
	r.inUse -= n
	r.admit()
}

// admit grants units to waiters from the head of the queue while capacity
// allows, preserving FIFO order: a large request at the head blocks later
// small requests (no barging), which keeps timing deterministic. Waiters
// killed while parked are dropped, not granted — their Acquire frame will
// never run again to consume (or release) the grant.
func (r *Resource) admit() {
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if w.p.Dead() {
			r.waiters = r.waiters[1:]
			continue
		}
		if r.capacity-r.inUse < w.n {
			return
		}
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		w.granted = true
		if w.parked {
			w.p.wake("resource")
		}
	}
}
