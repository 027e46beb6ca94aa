package collective

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/sim"
)

// Run closes its cluster: after one cell on any backend, no NIC or GPU
// service loop, work-group or rank process is left parked on a goroutine.
// The hung cell also checks that Close comes after the diagnosis, which
// reads the parked processes. Each cell runs once first to fill the
// process-wide coroutine pool race builds keep; goroutines left by earlier
// tests may exit during a cell, so only a rise counts.
func TestRunLeavesNoGoroutines(t *testing.T) {
	const n, nelems = 4, 256
	data, _ := makeInputs(n, nelems, 1)
	leaves := func(name string, cell func()) {
		cell()
		before := runtime.NumGoroutine()
		cell()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: goroutines %d before the cell, %d after", name, before, after)
		}
	}
	for _, k := range backends.All() {
		leaves(k.String(), func() {
			c := node.NewCluster(config.Default(), n)
			if _, err := Run(c, Config{Kind: k, TotalBytes: nelems * elemBytes, Data: data}); err != nil {
				t.Fatalf("%v: %v", k, err)
			}
		})
	}
	leaves("starved", func() {
		cfg := config.Default()
		cfg.NIC.TriggerFIFODepth = 1
		_, err := Run(node.NewCluster(cfg, n), Config{Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data})
		var hang *sim.HangError
		if !errors.As(err, &hang) || len(hang.Blocked) == 0 {
			t.Fatalf("starved cell: want a diagnosis naming blocked ranks, got %v", err)
		}
	})
}
