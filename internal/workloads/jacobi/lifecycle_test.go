package jacobi

import (
	"runtime"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/node"
)

// Run closes its cluster: after one cell on any backend, no process is
// left parked on a goroutine. Each cell runs once first to fill the
// process-wide coroutine pool race builds keep; goroutines left by earlier
// tests may exit during a cell, so only a rise counts.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, k := range backends.All() {
		cell := func() {
			c := node.NewCluster(config.Default(), 4)
			if _, err := Run(c, Params{Kind: k, N: 16, PX: 2, PY: 2, Iters: 2, WithData: true}); err != nil {
				t.Fatalf("%v: %v", k, err)
			}
		}
		cell()
		before := runtime.NumGoroutine()
		cell()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%v: goroutines %d before the cell, %d after", k, before, after)
		}
	}
}
