package sim

import (
	"fmt"
	"sync/atomic"
)

// The event core is allocation-free on the steady-state path: events live in
// a contiguous arena of slots recycled through a free list, the ready queue
// is a 4-ary min-heap of inline key entries, and callers hold lightweight
// value handles instead of pointers. Cancellation is lazy: a cancelled event
// stays queued until popped, and the queue compacts when cancelled entries
// outnumber live ones.
//
// Ordering: events fire in (at, seq) order, where seq is the engine's
// monotone schedule counter, so same-time events fire in the order they
// were scheduled.

// eventSlot is one arena cell. A slot is either queued (its gen matches
// outstanding handles) or free (gen bumped, on the free list). Slots are
// freed before their callback runs, so self-cancellation during dispatch is
// a no-op, matching the seed engine's "cancelling a fired event does
// nothing" semantics.
type eventSlot struct {
	at        Time
	fn        func()
	proc      *Proc // fast path: wake this process instead of calling a closure
	label     string
	gen       uint32
	cancelled bool
}

// heapEntry carries the ordering key inline so sift comparisons never chase
// into the arena.
type heapEntry struct {
	at  Time
	seq uint64
	id  int32
}

func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Event is a cancellable handle to a scheduled event. It is a small value —
// copy it freely. The zero Event is inert: Cancel and Cancelled are no-ops
// on it, as they are on handles whose event has already fired or been
// reclaimed.
type Event struct {
	eng *Engine
	at  Time
	id  int32
	gen uint32
}

// At reports the time the event was scheduled for.
func (ev Event) At() Time { return ev.at }

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op.
func (ev Event) Cancel() {
	e := ev.eng
	if e == nil {
		return
	}
	s := &e.arena[ev.id]
	if s.gen != ev.gen || s.cancelled {
		return
	}
	s.cancelled = true
	e.ncancelled++
	// Compact once cancelled entries outnumber live ones, but never bother
	// for tiny queues: the lazy pop-path drain reclaims those for free, and
	// eager reclamation would invalidate handles callers may still inspect.
	if e.ncancelled > 32 && e.ncancelled*2 > len(e.heap) {
		e.compact()
	}
}

// Cancelled reports whether the event is currently cancelled and still
// queued. It is false for fired or reclaimed events.
func (ev Event) Cancelled() bool {
	e := ev.eng
	if e == nil {
		return false
	}
	s := &e.arena[ev.id]
	return s.gen == ev.gen && s.cancelled
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all model code runs on the engine's goroutine or on a
// process coroutine the engine has switched to (switches are strictly
// hand-off, so at most one piece of model code executes at any instant).
// Independent engines are fully isolated, so separate replicas may run on
// separate OS threads.
type Engine struct {
	now Time
	// seq counts schedule calls; it breaks same-time ties in arrival order.
	seq uint64

	arena      []eventSlot
	free       []int32
	heap       []heapEntry
	ncancelled int
	executed   uint64

	// nowq is the same-time fast path: events scheduled at the current
	// instant in a FIFO ring, bypassing the heap. This is sound because
	// (at, seq) ordering is FIFO for at == now, and no heap entry at the
	// current time can be younger than a nowq entry — once the clock
	// reaches T, scheduling at T lands in nowq, never the heap, so heap
	// entries at T were scheduled earlier and outrank every nowq entry.
	// Process wakes — the dominant event class — are exactly this shape.
	nowq     []int32
	nowqHead int

	// process bookkeeping: procs lists spawned processes in spawn order
	// (dead ones are dropped once they outnumber the live), ndead counts
	// the dead among them, and idle is the pool of coroutines waiting for
	// a process. procPanic carries a model panic out of a coroutine.
	procs     []*Proc
	ndead     int
	idle      []*coro
	procPanic any
	stopped   bool

	// Trace, when non-nil, receives a line per executed labeled event. Used
	// by determinism tests.
	Trace func(t Time, label string)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of live (non-cancelled) events in the queue.
func (e *Engine) Pending() int {
	return len(e.heap) + (len(e.nowq) - e.nowqHead) - e.ncancelled
}

// Executed reports how many events this engine has fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// totalExecuted aggregates fired-event counts across all engines in the
// process; Run flushes each engine's local count into it so the perf
// harness can compute fleet-wide events/sec without a per-event atomic.
var totalExecuted atomic.Uint64

// TotalExecuted reports the number of events fired across every engine in
// this process (flushed when Run/RunUntil returns).
func TotalExecuted() uint64 { return totalExecuted.Load() }

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// causality violations are always model bugs.
func (e *Engine) Schedule(at Time, fn func()) Event {
	return e.schedule(at, "", fn, nil)
}

// After runs fn after delay d from the current time.
func (e *Engine) After(d Time, fn func()) Event {
	return e.schedule(e.now+d, "", fn, nil)
}

// ScheduleNamed is Schedule with a label surfaced to Trace.
func (e *Engine) ScheduleNamed(at Time, label string, fn func()) Event {
	return e.schedule(at, label, fn, nil)
}

// scheduleProc schedules a dispatch of p — the wake fast path. It stores
// the process on the event slot instead of allocating a closure, which
// keeps Sleep/wake allocation-free.
func (e *Engine) scheduleProc(at Time, label string, p *Proc) Event {
	return e.schedule(at, label, nil, p)
}

func (e *Engine) schedule(at Time, label string, fn func(), proc *Proc) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	if fn == nil && proc == nil {
		panic("sim: scheduling nil event function")
	}
	e.seq++
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, eventSlot{})
		id = int32(len(e.arena) - 1)
	}
	s := &e.arena[id]
	s.at, s.fn, s.proc, s.label, s.cancelled = at, fn, proc, label, false
	if at == e.now {
		e.nowq = append(e.nowq, id)
	} else {
		e.heapPush(heapEntry{at: at, seq: e.seq, id: id})
	}
	return Event{eng: e, at: at, id: id, gen: s.gen}
}

// freeSlot reclaims a slot: outstanding handles become stale (gen bump) and
// retained references are dropped.
func (e *Engine) freeSlot(id int32) {
	s := &e.arena[id]
	s.gen++
	s.fn = nil
	s.proc = nil
	s.label = ""
	e.free = append(e.free, id)
}

// drainCancelled pops cancelled entries off the fronts of both queues. It
// is the single place lazily-cancelled events are discarded on the pop
// path; both step and RunUntil peek through it.
func (e *Engine) drainCancelled() {
	for len(e.heap) > 0 && e.arena[e.heap[0].id].cancelled {
		e.ncancelled--
		e.freeSlot(e.heap[0].id)
		e.heapPop()
	}
	for e.nowqHead < len(e.nowq) && e.arena[e.nowq[e.nowqHead]].cancelled {
		e.ncancelled--
		e.freeSlot(e.nowq[e.nowqHead])
		e.nowqAdvance()
	}
}

// nowqAdvance consumes the front nowq entry, resetting the ring when it
// empties so its capacity is reused.
func (e *Engine) nowqAdvance() {
	e.nowqHead++
	if e.nowqHead == len(e.nowq) {
		e.nowq = e.nowq[:0]
		e.nowqHead = 0
	}
}

// popNext removes and returns the slot of the next live event, assuming
// drainCancelled has run. A heap entry at the current time always wins over
// the nowq front (it is necessarily older — see the nowq invariant); the
// nowq front wins over any later-time heap entry.
func (e *Engine) popNext() (int32, bool) {
	if len(e.heap) > 0 && (e.heap[0].at == e.now || e.nowqHead == len(e.nowq)) {
		return e.heapPop(), true
	}
	if e.nowqHead < len(e.nowq) {
		id := e.nowq[e.nowqHead]
		e.nowqAdvance()
		return id, true
	}
	return 0, false
}

// step executes the next live event. It reports false when no live events
// remain.
func (e *Engine) step() bool {
	e.drainCancelled()
	id, ok := e.popNext()
	if !ok {
		return false
	}
	s := &e.arena[id]
	at, fn, proc, label := s.at, s.fn, s.proc, s.label
	e.freeSlot(id)
	e.now = at
	e.executed++
	if e.Trace != nil && label != "" {
		e.Trace(e.now, label)
	}
	if proc != nil {
		e.dispatch(proc)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue drains or Stop is called. On return
// the idle process coroutines are stopped, so a finished simulation keeps
// no spare goroutine stacks; processes still parked keep theirs until
// Close.
func (e *Engine) Run() {
	defer e.releaseIdle()
	e.stopped = false
	start := e.executed
	for !e.stopped && e.step() {
	}
	totalExecuted.Add(e.executed - start)
}

// Close ends every live process: each is condemned as by Kill and resumed
// once, right here rather than from the event loop, so it unwinds through
// its deferred calls and exit callbacks before Close returns. Processes
// those callbacks spawn are ended the same way. The idle coroutines are
// then stopped, so the engine holds no goroutine afterwards. Events still
// queued stay queued; the engine must not be run again.
func (e *Engine) Close() {
	for len(e.procs) > 0 {
		procs := e.procs
		e.procs = nil
		for _, p := range procs {
			p.killed = true
			for !p.dead {
				e.dispatch(p)
			}
		}
	}
	e.ndead = 0
	e.releaseIdle()
}

// RunUntil executes events with time ≤ deadline, leaving later events
// queued, and advances the clock to deadline if the simulation outlived it.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	start := e.executed
	for !e.stopped {
		e.drainCancelled()
		next, ok := e.nextAt()
		if !ok || next > deadline {
			break
		}
		e.step()
	}
	totalExecuted.Add(e.executed - start)
	if e.now < deadline {
		e.now = deadline
	}
}

// Stop makes Run/RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// nextAt reports the time of the next live event, assuming drainCancelled
// has run. Any nowq entry is at the current time.
func (e *Engine) nextAt() (Time, bool) {
	if e.nowqHead < len(e.nowq) {
		return e.now, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, true
	}
	return 0, false
}

// compact removes every lazily-cancelled entry from both queues in one pass
// and re-establishes the heap invariant. Triggered when cancelled entries
// outnumber live ones; ordering is unaffected because (at, seq) is a
// total order independent of heap layout and the nowq filter preserves FIFO.
func (e *Engine) compact() {
	keep := e.heap[:0]
	for _, h := range e.heap {
		if e.arena[h.id].cancelled {
			e.ncancelled--
			e.freeSlot(h.id)
		} else {
			keep = append(keep, h)
		}
	}
	e.heap = keep
	for i := (len(e.heap) - 2) / 4; i >= 0; i-- {
		e.siftDown(i)
	}
	if e.nowqHead < len(e.nowq) {
		live := e.nowq[:0]
		for _, id := range e.nowq[e.nowqHead:] {
			if e.arena[id].cancelled {
				e.ncancelled--
				e.freeSlot(id)
			} else {
				live = append(live, id)
			}
		}
		e.nowq = live
		e.nowqHead = 0
	} else {
		e.nowq = e.nowq[:0]
		e.nowqHead = 0
	}
}

// The ready queue is a 4-ary min-heap: shallower than a binary heap (fewer
// cache-missing levels per sift) at the cost of up to three extra
// comparisons per level, a good trade for the sim's push/pop mix.

func (e *Engine) heapPush(h heapEntry) {
	e.heap = append(e.heap, h)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.heap[i].less(e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// heapPop removes and returns the slot id of the minimum entry.
func (e *Engine) heapPop() int32 {
	id := e.heap[0].id
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return id
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].less(h[min]) {
				min = c
			}
		}
		if !h[min].less(h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
