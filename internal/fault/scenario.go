// Scenario composition: correlated multi-class failures over named
// failure domains.
//
// A config.ScenarioConfig describes *what* fails together (a rack crash
// that also cuts the rack's links, a gray ToR plus stragglers on the same
// nodes, a restart storm after a heal); this file compiles that timeline
// into the existing single-class plan schedules — CrashConfig,
// PartitionConfig, DegradeConfig, SlowConfig — before any plan is built.
// Compilation is a pure config-to-config expansion: each sub-plan still
// draws from its own private RNG stream, so composing a scenario never
// perturbs the injector, SDC, or slow-plan streams, and a zero-valued
// ScenarioConfig leaves the config bit-for-bit untouched.
package fault

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/config"
	"repro/internal/sim"
)

// scenarioSeedSalt decorrelates the scenario's private jitter stream from
// the injector (seed), SDC, and slow streams derived from nearby seeds.
const scenarioSeedSalt = 0x5CE7A210

// Scenario is a compiled correlated-failure timeline: bookkeeping about
// what ApplyScenario expanded, kept on the cluster for reporting.
type Scenario struct {
	cfg         config.ScenarioConfig
	crashes     int // crash-stop events scheduled
	restarts    int // of which restart (storm members)
	cuts        int // partition events scheduled
	grays       int // degrade windows scheduled
	slows       int // slow windows scheduled
	switchKills int // switch/trunk failure events scheduled
}

// ApplyScenario expands cfg.Scenario into the single-class plan schedules
// inside cfg (Crash.Events, Faults.Partition.Events, Faults.Degrade.Windows,
// Faults.Slow.Windows) for a cluster of n nodes. It returns nil for a
// zero-valued scenario without touching cfg. Expansion order is
// deterministic — events in declaration order, domain nodes ascending —
// and restart-storm jitter draws come from a private RNG seeded by
// Scenario.Seed, so the same scenario always compiles to the same
// schedules.
func ApplyScenario(cfg *config.SystemConfig, n int) (*Scenario, error) {
	sc := cfg.Scenario
	if !sc.Enabled() {
		return nil, nil
	}
	s := &Scenario{cfg: sc}
	// The jitter stream is private to the scenario: created lazily so a
	// jitter-free scenario draws nothing, and advanced in deterministic
	// (event, sorted-node) order.
	var rng *rand.Rand
	jitter := func(span sim.Time) sim.Time {
		if span <= 0 {
			return 0
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(sc.Seed + scenarioSeedSalt))
		}
		return sim.Time(rng.Int63n(int64(span) + 1))
	}
	for _, ev := range sc.Events {
		// Domain nodes the cluster lacks are ignored, so one scenario can
		// ride a sweep over cluster sizes (fig10 runs 2 to 32 nodes); a node
		// event left with no node compiles to nothing.
		nodes := sc.DomainNodes(ev.Domain)
		for len(nodes) > 0 && nodes[len(nodes)-1] >= n {
			nodes = nodes[:len(nodes)-1]
		}
		if len(nodes) == 0 && ev.Kind != config.ScenarioSwitchFail && ev.Kind != config.ScenarioPodFail {
			continue
		}
		switch ev.Kind {
		case config.ScenarioCrash, config.ScenarioRackFail:
			for _, node := range nodes {
				ce := config.CrashEvent{Node: node, At: ev.At}
				if ev.Heal > 0 {
					ce.RestartAfter = ev.Heal + jitter(ev.Jitter)
					s.restarts++
				}
				cfg.Crash.Events = append(cfg.Crash.Events, ce)
				s.crashes++
			}
			if ev.Kind == config.ScenarioRackFail {
				cfg.Faults.Partition.Events = append(cfg.Faults.Partition.Events, config.PartitionEvent{
					A: nodes, At: ev.At, HealAfter: ev.Heal,
				})
				s.cuts++
			}
		case config.ScenarioCut:
			cfg.Faults.Partition.Events = append(cfg.Faults.Partition.Events, config.PartitionEvent{
				A: nodes, At: ev.At, HealAfter: ev.Heal, Asymmetric: ev.Asymmetric,
			})
			s.cuts++
		case config.ScenarioGray:
			for _, node := range nodes {
				out := config.DegradeWindow{
					Src: node, Dst: -1, From: ev.At, Until: ev.At + ev.Heal,
					LatencyFactor: ev.LatencyFactor, LossProb: ev.LossProb,
				}
				cfg.Faults.Degrade.Windows = append(cfg.Faults.Degrade.Windows, out)
				s.grays++
				if !ev.Asymmetric {
					in := out
					in.Src, in.Dst = -1, node
					cfg.Faults.Degrade.Windows = append(cfg.Faults.Degrade.Windows, in)
					s.grays++
				}
			}
		case config.ScenarioSlow:
			for _, node := range nodes {
				cfg.Faults.Slow.Windows = append(cfg.Faults.Slow.Windows, config.SlowWindow{
					Node: node, From: ev.At, Until: ev.At + ev.Heal,
					GPUFactor: ev.GPUFactor, CmdFactor: ev.CmdFactor, DMAFactor: ev.DMAFactor,
				})
				s.slows++
			}
		case config.ScenarioSwitchFail:
			if cfg.Network.Topology != config.TopologyFatTree {
				return nil, fmt.Errorf("fault: switchfail scenario requires Network.Topology = %q", config.TopologyFatTree)
			}
			tier, idx, err := config.ParseSwitchRef(ev.Domain)
			if err != nil {
				return nil, err
			}
			if err := checkSwitchIndex(cfg.Network.FatTree, n, tier, idx); err != nil {
				return nil, err
			}
			cfg.Faults.Switch.Events = append(cfg.Faults.Switch.Events, config.SwitchEvent{
				Tier: tier, Index: idx, At: ev.At, RestoreAfter: ev.Heal,
			})
			s.switchKills++
		case config.ScenarioPodFail:
			// The pod loses power: its leaf and spine switches die together
			// with its nodes. Heal restores the switches and lands the node
			// restart storm jittered around the same instant.
			if cfg.Network.Topology != config.TopologyFatTree {
				return nil, fmt.Errorf("fault: podfail scenario requires Network.Topology = %q", config.TopologyFatTree)
			}
			pod, _ := config.ParseScenarioPod(ev.Domain)
			topo := cfg.Network.FatTree.WithDefaults()
			if pod >= topo.Pods(n) {
				return nil, fmt.Errorf("fault: podfail references pod %d but the fat-tree has %d pods", pod, topo.Pods(n))
			}
			for l := pod * topo.PodLeaves; l < (pod+1)*topo.PodLeaves && l < topo.Leaves(n); l++ {
				cfg.Faults.Switch.Events = append(cfg.Faults.Switch.Events, config.SwitchEvent{
					Tier: config.SwitchTierLeaf, Index: l, At: ev.At, RestoreAfter: ev.Heal,
				})
				s.switchKills++
			}
			for sp := pod * topo.Spines; sp < (pod+1)*topo.Spines; sp++ {
				cfg.Faults.Switch.Events = append(cfg.Faults.Switch.Events, config.SwitchEvent{
					Tier: config.SwitchTierSpine, Index: sp, At: ev.At, RestoreAfter: ev.Heal,
				})
				s.switchKills++
			}
			for _, node := range topo.PodNodes(pod, n) {
				ce := config.CrashEvent{Node: node, At: ev.At}
				if ev.Heal > 0 {
					ce.RestartAfter = ev.Heal + jitter(ev.Jitter)
					s.restarts++
				}
				cfg.Crash.Events = append(cfg.Crash.Events, ce)
				s.crashes++
			}
		default:
			// Unreachable after config validation; keep the compiler honest.
			return nil, fmt.Errorf("fault: scenario event kind %q", ev.Kind)
		}
	}
	return s, nil
}

// Summary renders one line of compiled-scenario accounting for trace
// output, e.g. "scenario: domains=2 events=3 crashes=4 restarts=4 cuts=1".
func (s *Scenario) Summary() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: domains=%d events=%d", len(s.cfg.Domains), len(s.cfg.Events))
	if s.crashes > 0 {
		fmt.Fprintf(&b, " crashes=%d restarts=%d", s.crashes, s.restarts)
	}
	if s.cuts > 0 {
		fmt.Fprintf(&b, " cuts=%d", s.cuts)
	}
	if s.grays > 0 {
		fmt.Fprintf(&b, " gray-links=%d", s.grays)
	}
	if s.slows > 0 {
		fmt.Fprintf(&b, " slow-windows=%d", s.slows)
	}
	if s.switchKills > 0 {
		fmt.Fprintf(&b, " switch-kills=%d", s.switchKills)
	}
	return b.String()
}

// checkSwitchIndex bounds a switchfail ref against the fat-tree shape the
// cluster will build for n nodes.
func checkSwitchIndex(topo config.TopologyConfig, n int, tier string, idx int) error {
	topo = topo.WithDefaults()
	var have int
	switch tier {
	case config.SwitchTierLeaf:
		have = topo.Leaves(n)
	case config.SwitchTierSpine:
		have = topo.Pods(n) * topo.Spines
	case config.SwitchTierCore:
		have = topo.Cores
	default:
		return fmt.Errorf("fault: switchfail tier %q", tier)
	}
	if idx >= have {
		return fmt.Errorf("fault: switchfail references %s%d but the fat-tree has %d", tier, idx, have)
	}
	return nil
}

// Config returns the source scenario.
func (s *Scenario) Config() config.ScenarioConfig { return s.cfg }
