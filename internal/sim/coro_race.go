//go:build race

package sim

import "sync"

// Under the race detector, a coroutine goroutine that ends keeps its race
// state: the runtime's coroutine exit skips racegoend (go1.23, go1.24),
// leaking about 5 KB per coroutine, and a race-enabled test binary that
// builds thousands of clusters runs out of memory. Race builds therefore
// park released coroutines in one process-wide pool for the next engine
// instead of ending them, so the count ever created stays at the peak in
// use at once.
var released struct {
	sync.Mutex
	cos []*coro
}

// releaseCoros parks idle coroutines in the process-wide pool.
func releaseCoros(cos []*coro) {
	released.Lock()
	released.cos = append(released.cos, cos...)
	released.Unlock()
}

// reuseReleased takes a coroutine from the process-wide pool, or returns
// nil when it is empty.
func reuseReleased() *coro {
	released.Lock()
	defer released.Unlock()
	n := len(released.cos)
	if n == 0 {
		return nil
	}
	co := released.cos[n-1]
	released.cos[n-1] = nil
	released.cos = released.cos[:n-1]
	return co
}
