package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
)

// The perf harness measures the simulator itself: how fast the experiment
// suite executes events and how much it allocates per event, tracked over
// time through a committed BENCH_sim.json baseline. Simulated results are
// deterministic; these numbers are the only ones that vary per host, so
// they live in their own report instead of the experiment output.

// PerfResult is one measured experiment.
type PerfResult struct {
	Name   string  `json:"name"`
	WallMs float64 `json:"wall_ms"`
	// Events counts simulation events fired across every engine the
	// experiment created (from sim.TotalExecuted deltas).
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocsPerEvent is heap allocations per fired event across the whole
	// harness (runtime.MemStats Mallocs delta / events) — a model-stack
	// figure, not just the engine core.
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// PerfReport is the BENCH_sim.json payload.
type PerfReport struct {
	GoVersion    string       `json:"go_version"`
	GOMAXPROCS   int          `json:"gomaxprocs"`
	Parallelism  int          `json:"parallelism"`
	Preset       string       `json:"preset"`
	TotalEvents  uint64       `json:"total_events"`
	TotalWallMs  float64      `json:"total_wall_ms"`
	EventsPerSec float64      `json:"events_per_sec"`
	Experiments  []PerfResult `json:"experiments"`
}

type perfExp struct {
	name string
	run  func()
}

// coreChain drives one engine through n dependent events — raw event-core
// throughput with no model code attached.
func coreChain(n int) {
	eng := sim.NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < n {
			eng.After(10, tick)
		}
	}
	eng.After(0, tick)
	eng.Run()
}

// perfSuite selects the experiment list for a preset. The smoke preset is
// a strict subset of full (same experiment names where present) so CI can
// compare a smoke run against a committed full baseline.
func perfSuite(cfg config.SystemConfig, preset string) ([]perfExp, error) {
	core := perfExp{"core.chain", func() { coreChain(1 << 20) }}
	fig1 := perfExp{"fig1", func() { Figure1(cfg) }}
	fig8 := perfExp{"fig8", func() { Figure8Extended(cfg) }}
	fig9 := perfExp{"fig9", func() { Figure9(cfg) }}
	fig10 := perfExp{"fig10", func() { Figure10(cfg) }}
	fig11 := perfExp{"fig11", func() {
		if _, err := Figure11(cfg); err != nil {
			panic(err)
		}
	}}
	ablations := perfExp{"ablations", func() { RenderAblations(cfg) }}
	faults := perfExp{"faults", func() { AblationFaultTolerance(cfg, []float64{0, 0.02, 0.05}) }}
	resources := perfExp{"resources", func() { AblationResourcePressure(cfg, []float64{1.0, 0.5}) }}
	sdc := perfExp{"sdc", func() { AblationSDC(cfg, []float64{0.02, 0.10}) }}
	stragglers := perfExp{"stragglers", func() { AblationStraggler(cfg, []float64{10}) }}
	incast := perfExp{"fattree.incast", func() { AblationFatTreeIncast(cfg, 16, 64<<10) }}
	switch preset {
	case "full":
		return []perfExp{core, fig1, fig8, fig9, fig10, fig11, ablations, faults, resources, sdc, stragglers, incast}, nil
	case "smoke":
		return []perfExp{core, fig1, fig8, faults, resources, incast}, nil
	default:
		return nil, fmt.Errorf("bench: unknown perf preset %q (want full or smoke)", preset)
	}
}

// RunPerf executes the preset's experiments, measuring each one's wall
// time, fired events, and allocations.
func RunPerf(cfg config.SystemConfig, preset string) (*PerfReport, error) {
	exps, err := perfSuite(cfg, preset)
	if err != nil {
		return nil, err
	}
	rep := &PerfReport{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: Parallelism(),
		Preset:      preset,
	}
	for _, ex := range exps {
		// Collect before timing so each experiment starts from a clean GC
		// state: without this, an allocation-heavy experiment leaves GC debt
		// that the next experiment pays for, and measured events/sec depends
		// on suite order rather than the experiment itself.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ev0 := sim.TotalExecuted()
		t0 := time.Now()
		ex.run()
		wall := time.Since(t0)
		events := sim.TotalExecuted() - ev0
		runtime.ReadMemStats(&after)

		r := PerfResult{
			Name:   ex.name,
			WallMs: float64(wall.Microseconds()) / 1000,
			Events: events,
		}
		if wall > 0 {
			r.EventsPerSec = float64(events) / wall.Seconds()
		}
		if events > 0 {
			r.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
		}
		rep.Experiments = append(rep.Experiments, r)
		rep.TotalEvents += events
		rep.TotalWallMs += r.WallMs
	}
	if rep.TotalWallMs > 0 {
		rep.EventsPerSec = float64(rep.TotalEvents) / (rep.TotalWallMs / 1000)
	}
	return rep, nil
}

// Render formats the report as the harness's stdout table.
func (r *PerfReport) Render() string {
	out := fmt.Sprintf("Simulator perf (%s preset, %s, GOMAXPROCS=%d, parallel=%d)\n",
		r.Preset, r.GoVersion, r.GOMAXPROCS, r.Parallelism)
	out += fmt.Sprintf("%-12s %10s %12s %14s %12s\n", "experiment", "wall ms", "events", "events/sec", "allocs/event")
	for _, e := range r.Experiments {
		out += fmt.Sprintf("%-12s %10.1f %12d %14.0f %12.2f\n",
			e.Name, e.WallMs, e.Events, e.EventsPerSec, e.AllocsPerEvent)
	}
	out += fmt.Sprintf("%-12s %10.1f %12d %14.0f\n", "total", r.TotalWallMs, r.TotalEvents, r.EventsPerSec)
	return out
}

// WriteJSON saves the report.
func (r *PerfReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadPerfReport reads a previously saved report.
func LoadPerfReport(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r PerfReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &r, nil
}

// ComparePerf checks cur against base: every experiment present in both
// must hold at least (1-tolerance) of the baseline events/sec. Returns a
// human-readable line per regression (empty = no regression). Experiments
// present in only one report are skipped, so a smoke run compares cleanly
// against a full baseline.
func ComparePerf(cur, base *PerfReport, tolerance float64) []string {
	baseline := map[string]PerfResult{}
	for _, e := range base.Experiments {
		baseline[e.Name] = e
	}
	var regressions []string
	for _, e := range cur.Experiments {
		b, ok := baseline[e.Name]
		if !ok || b.EventsPerSec <= 0 {
			continue
		}
		floor := b.EventsPerSec * (1 - tolerance)
		if e.EventsPerSec < floor {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f events/sec < %.0f (baseline %.0f - %.0f%% tolerance)",
					e.Name, e.EventsPerSec, floor, b.EventsPerSec, tolerance*100))
		}
	}
	return regressions
}
