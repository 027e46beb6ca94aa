package fault

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

func TestApplyScenarioZeroValueUntouched(t *testing.T) {
	cfg := config.Default()
	want := cfg
	s, err := ApplyScenario(&cfg, 4)
	if err != nil {
		t.Fatalf("ApplyScenario: %v", err)
	}
	if s != nil {
		t.Errorf("zero scenario compiled to %+v", s)
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("zero scenario mutated the config:\n got %+v\nwant %+v", cfg, want)
	}
}

// Domain nodes beyond the cluster are dropped, and an event whose domain
// has no node in the cluster compiles to nothing, so one scenario runs on
// every cell of a sweep over cluster sizes.
func TestApplyScenarioClipsDomainsToCluster(t *testing.T) {
	cfg := config.Default()
	cfg.Scenario = config.ScenarioConfig{
		Domains: []config.ScenarioDomain{{Name: "d", Nodes: []int{0, 7}}, {Name: "far", Nodes: []int{5, 6}}},
		Events: []config.ScenarioEvent{
			{Kind: config.ScenarioCut, Domain: "d", At: sim.Microsecond},
			{Kind: config.ScenarioCrash, Domain: "far", At: sim.Microsecond, Heal: sim.Microsecond},
		},
	}
	s, err := ApplyScenario(&cfg, 4)
	if err != nil {
		t.Fatalf("ApplyScenario: %v", err)
	}
	if cuts := cfg.Faults.Partition.Events; len(cuts) != 1 || !reflect.DeepEqual(cuts[0].A, []int{0}) {
		t.Errorf("partition events = %+v, want one cut of [0]", cuts)
	}
	if len(cfg.Crash.Events) != 0 {
		t.Errorf("crash events = %+v, want none (domain far is outside the cluster)", cfg.Crash.Events)
	}
	if got := s.Summary(); got != "scenario: domains=2 events=2 cuts=1" {
		t.Errorf("Summary() = %q", got)
	}
}

func TestApplyScenarioRackFail(t *testing.T) {
	cfg := config.Default()
	cfg.Scenario = config.ScenarioConfig{
		Seed:    7,
		Domains: []config.ScenarioDomain{{Name: "rack0", Nodes: []int{3, 1, 0, 2}}},
		Events: []config.ScenarioEvent{{
			Kind: config.ScenarioRackFail, Domain: "rack0",
			At: 70 * sim.Microsecond, Heal: 60 * sim.Microsecond, Jitter: 10 * sim.Microsecond,
		}},
	}
	s, err := ApplyScenario(&cfg, 8)
	if err != nil {
		t.Fatalf("ApplyScenario: %v", err)
	}
	// One crash per domain node in ascending order, each restarting with a
	// jittered delay in [Heal, Heal+Jitter].
	if len(cfg.Crash.Events) != 4 {
		t.Fatalf("crash events = %+v, want 4", cfg.Crash.Events)
	}
	for i, ce := range cfg.Crash.Events {
		if ce.Node != i || ce.At != 70*sim.Microsecond {
			t.Errorf("crash[%d] = %+v, want node %d at 70us", i, ce, i)
		}
		if ce.RestartAfter < 60*sim.Microsecond || ce.RestartAfter > 70*sim.Microsecond {
			t.Errorf("crash[%d].RestartAfter = %v outside [heal, heal+jitter]", i, ce.RestartAfter)
		}
	}
	// The correlated cut: the whole domain vs everyone else, healing with
	// the restart storm.
	cuts := cfg.Faults.Partition.Events
	if len(cuts) != 1 {
		t.Fatalf("partition events = %+v, want 1", cuts)
	}
	if !reflect.DeepEqual(cuts[0].A, []int{0, 1, 2, 3}) || cuts[0].At != 70*sim.Microsecond ||
		cuts[0].HealAfter != 60*sim.Microsecond || cuts[0].Asymmetric {
		t.Errorf("cut = %+v", cuts[0])
	}
	if s.Summary() != "scenario: domains=1 events=1 crashes=4 restarts=4 cuts=1" {
		t.Errorf("Summary() = %q", s.Summary())
	}
}

func TestApplyScenarioJitterDeterministic(t *testing.T) {
	build := func(seed int64) []config.CrashEvent {
		cfg := config.Default()
		cfg.Scenario = config.ScenarioConfig{
			Seed:    seed,
			Domains: []config.ScenarioDomain{{Name: "d", Nodes: []int{0, 1, 2, 3}}},
			Events: []config.ScenarioEvent{{
				Kind: config.ScenarioCrash, Domain: "d",
				At: 50 * sim.Microsecond, Heal: 30 * sim.Microsecond, Jitter: 20 * sim.Microsecond,
			}},
		}
		if _, err := ApplyScenario(&cfg, 4); err != nil {
			t.Fatalf("ApplyScenario: %v", err)
		}
		return cfg.Crash.Events
	}
	a, b := build(7), build(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed expanded differently:\n%+v\n%+v", a, b)
	}
	if reflect.DeepEqual(a, build(8)) {
		t.Error("different seeds drew identical jitter (suspicious)")
	}
	// The storm actually spreads: not every node restarts at the same time.
	spread := false
	for _, ce := range a[1:] {
		if ce.RestartAfter != a[0].RestartAfter {
			spread = true
		}
	}
	if !spread {
		t.Errorf("no jitter spread in %+v", a)
	}
}

func TestApplyScenarioGraySlowCut(t *testing.T) {
	cfg := config.Default()
	cfg.Scenario = config.ScenarioConfig{
		Domains: []config.ScenarioDomain{
			{Name: "pair", Nodes: []int{2, 5}},
			{Name: "rack1", Nodes: []int{4, 5, 6, 7}},
		},
		Events: []config.ScenarioEvent{
			{Kind: config.ScenarioGray, Domain: "pair", At: 10 * sim.Microsecond,
				Heal: 100 * sim.Microsecond, LatencyFactor: 10, LossProb: 0.05},
			{Kind: config.ScenarioSlow, Domain: "pair", At: 5 * sim.Microsecond,
				Heal: 50 * sim.Microsecond, GPUFactor: 8},
			{Kind: config.ScenarioCut, Domain: "rack1", At: 30 * sim.Microsecond,
				Heal: 40 * sim.Microsecond, Asymmetric: true},
		},
	}
	s, err := ApplyScenario(&cfg, 8)
	if err != nil {
		t.Fatalf("ApplyScenario: %v", err)
	}
	// Gray: an outbound and an inbound window per domain node.
	want := []config.DegradeWindow{
		{Src: 2, Dst: -1, From: 10 * sim.Microsecond, Until: 110 * sim.Microsecond, LatencyFactor: 10, LossProb: 0.05},
		{Src: -1, Dst: 2, From: 10 * sim.Microsecond, Until: 110 * sim.Microsecond, LatencyFactor: 10, LossProb: 0.05},
		{Src: 5, Dst: -1, From: 10 * sim.Microsecond, Until: 110 * sim.Microsecond, LatencyFactor: 10, LossProb: 0.05},
		{Src: -1, Dst: 5, From: 10 * sim.Microsecond, Until: 110 * sim.Microsecond, LatencyFactor: 10, LossProb: 0.05},
	}
	if !reflect.DeepEqual(cfg.Faults.Degrade.Windows, want) {
		t.Errorf("degrade windows = %+v", cfg.Faults.Degrade.Windows)
	}
	// Slow: one window per domain node.
	wantSlow := []config.SlowWindow{
		{Node: 2, From: 5 * sim.Microsecond, Until: 55 * sim.Microsecond, GPUFactor: 8},
		{Node: 5, From: 5 * sim.Microsecond, Until: 55 * sim.Microsecond, GPUFactor: 8},
	}
	if !reflect.DeepEqual(cfg.Faults.Slow.Windows, wantSlow) {
		t.Errorf("slow windows = %+v", cfg.Faults.Slow.Windows)
	}
	// Cut: one partition event, asymmetric preserved.
	cuts := cfg.Faults.Partition.Events
	if len(cuts) != 1 || !cuts[0].Asymmetric || !reflect.DeepEqual(cuts[0].A, []int{4, 5, 6, 7}) {
		t.Errorf("partition events = %+v", cuts)
	}
	if len(cfg.Crash.Events) != 0 {
		t.Errorf("crash events = %+v, want none", cfg.Crash.Events)
	}
	if got := s.Summary(); got != "scenario: domains=2 events=3 cuts=1 gray-links=4 slow-windows=2" {
		t.Errorf("Summary() = %q", got)
	}
	if !reflect.DeepEqual(s.Config(), cfg.Scenario) {
		t.Error("Config() does not return the source scenario")
	}
}

// Asymmetric gray degrades only the domain's outbound links: one
// Src=node, Dst=-1 window per node, where symmetric gray adds the inbound
// Src=-1, Dst=node window too.
func TestApplyScenarioGrayAsymmetric(t *testing.T) {
	for _, asym := range []bool{true, false} {
		cfg := config.Default()
		cfg.Scenario = config.ScenarioConfig{
			Domains: []config.ScenarioDomain{{Name: "pair", Nodes: []int{5, 2}}},
			Events: []config.ScenarioEvent{{Kind: config.ScenarioGray, Domain: "pair", At: sim.Microsecond,
				Heal: 4999 * sim.Microsecond, LatencyFactor: 10, LossProb: 0.05, Asymmetric: asym}},
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("asym=%v: Validate: %v", asym, err)
		}
		if _, err := ApplyScenario(&cfg, 8); err != nil {
			t.Fatalf("asym=%v: ApplyScenario: %v", asym, err)
		}
		var want []config.DegradeWindow
		for _, node := range []int{2, 5} {
			out := config.DegradeWindow{Src: node, Dst: -1, From: sim.Microsecond, Until: 5000 * sim.Microsecond,
				LatencyFactor: 10, LossProb: 0.05}
			want = append(want, out)
			if !asym {
				in := out
				in.Src, in.Dst = -1, node
				want = append(want, in)
			}
		}
		if !reflect.DeepEqual(cfg.Faults.Degrade.Windows, want) {
			t.Errorf("asym=%v: degrade windows = %+v, want %+v", asym, cfg.Faults.Degrade.Windows, want)
		}
	}
}

func TestApplyScenarioJitterFreeDrawsNothing(t *testing.T) {
	// Two scenarios with different seeds but no jitter must expand
	// identically: the RNG is lazy, so a jitter-free scenario draws nothing.
	build := func(seed int64) config.SystemConfig {
		cfg := config.Default()
		cfg.Scenario = config.ScenarioConfig{
			Seed:    seed,
			Domains: []config.ScenarioDomain{{Name: "d", Nodes: []int{0, 1}}},
			Events: []config.ScenarioEvent{{
				Kind: config.ScenarioCrash, Domain: "d",
				At: 50 * sim.Microsecond, Heal: 30 * sim.Microsecond,
			}},
		}
		if _, err := ApplyScenario(&cfg, 2); err != nil {
			t.Fatalf("ApplyScenario: %v", err)
		}
		return cfg
	}
	a, b := build(1), build(999)
	a.Scenario.Seed, b.Scenario.Seed = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("jitter-free expansion depends on the seed:\n%+v\n%+v", a.Crash.Events, b.Crash.Events)
	}
}
