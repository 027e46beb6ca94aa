//go:build !race

package sim

// releaseCoros stops idle coroutines, ending their goroutines.
func releaseCoros(cos []*coro) {
	for _, co := range cos {
		co.stop()
	}
}

// reuseReleased reports no coroutine: released ones have ended.
func reuseReleased() *coro { return nil }
