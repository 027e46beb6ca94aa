package config

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// ScenarioDomain names a failure domain: a group of nodes that fail
// together (a rack behind one power feed, the ports of one ToR switch).
// Correlated scenario events target domains, not individual nodes.
type ScenarioDomain struct {
	Name  string
	Nodes []int
}

// Scenario event kinds. Each kind expands to events on the existing
// single-class plans (internal/fault); see fault.Scenario.
const (
	// ScenarioCrash crash-stops every node in the domain at At. When Heal
	// > 0 the domain restarts in a storm around At+Heal: each node's
	// restart is delayed by an independent uniform [0, Jitter] draw from
	// the scenario's private RNG.
	ScenarioCrash = "crash"
	// ScenarioCut blackholes the domain's links (domain vs rest of the
	// fabric) from At until At+Heal (Heal 0 = never heals). Asymmetric
	// cuts only the domain's outbound direction.
	ScenarioCut = "cut"
	// ScenarioGray degrades every link into and out of the domain during
	// [At, At+Heal): flight latency times LatencyFactor, packet loss with
	// probability LossProb. Asymmetric degrades only the domain's outbound
	// direction.
	ScenarioGray = "gray"
	// ScenarioSlow makes the domain's nodes fail-slow during [At,
	// At+Heal): GPU compute, NIC command parse, and DMA stretch by
	// GPUFactor/CmdFactor/DMAFactor.
	ScenarioSlow = "slow"
	// ScenarioRackFail is the correlated compound: the domain crash-stops
	// at At AND its links are cut at At (power and switch go together).
	// When Heal > 0 the cut heals at At+Heal and the restart storm lands
	// jittered around the same instant.
	ScenarioRackFail = "rackfail"
	// ScenarioSwitchFail kills one fat-tree switch at At. Its Domain is a
	// topology token — a switch ref like "spine1" (leaf<k>/spine<k>/
	// core<k>) — not a defined node domain. Heal > 0 restores the switch
	// at At+Heal. Requires Network.Topology = TopologyFatTree.
	ScenarioSwitchFail = "switchfail"
	// ScenarioPodFail is the pod-scale correlated compound on a fat-tree:
	// at At the pod's leaf and spine switches all die AND the pod's nodes
	// crash-stop (the pod lost power). Its Domain is the topology token
	// "pod<k>". Heal > 0 restores the switches at At+Heal and lands the
	// node restart storm jittered around the same instant.
	ScenarioPodFail = "podfail"
)

// ParseScenarioPod parses the "pod<k>" topology token of a podfail event.
func ParseScenarioPod(s string) (int, bool) {
	rest, ok := strings.CutPrefix(s, "pod")
	if !ok || rest == "" {
		return 0, false
	}
	n := 0
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// ScenarioEvent is one correlated event on one failure domain.
type ScenarioEvent struct {
	// Kind selects the failure class (Scenario* constants).
	Kind string
	// Domain names the target ScenarioDomain.
	Domain string
	// At is the event start (must be > 0, like every plan schedule).
	At sim.Time
	// Heal is the duration until the event heals (cut/gray/slow window
	// length; crash restart delay). 0 = never heals / never restarts,
	// except gray and slow, which require a bounded window.
	Heal sim.Time
	// Jitter spreads a restart storm: each crashed node's restart is
	// additionally delayed by uniform [0, Jitter]. Crash/rackfail only.
	Jitter sim.Time
	// LatencyFactor and LossProb parameterize gray degradation.
	LatencyFactor float64
	LossProb      float64
	// GPUFactor, CmdFactor, DMAFactor parameterize slow windows.
	GPUFactor, CmdFactor, DMAFactor float64
	// Asymmetric makes a cut or gray event one-directional (domain
	// outbound only).
	Asymmetric bool
}

// ScenarioConfig composes the existing single-class fault plans into one
// deterministic correlated-failure timeline over named failure domains.
// The zero value schedules nothing and costs nothing — no RNG draws, no
// expansion, a bit-for-bit identical trace (tested) — the same pay-for-use
// contract as every plan it composes.
type ScenarioConfig struct {
	// Seed seeds the scenario's private RNG (restart-storm jitter draws).
	// Sub-plans keep their own private streams, so composing a scenario
	// never perturbs the injector, SDC, or slow-plan streams.
	Seed    int64
	Domains []ScenarioDomain
	Events  []ScenarioEvent
}

// Enabled reports whether the scenario schedules anything.
func (s ScenarioConfig) Enabled() bool { return len(s.Events) > 0 }

func (s ScenarioConfig) validate() error {
	names := map[string]bool{}
	for i, d := range s.Domains {
		if d.Name == "" {
			return fmt.Errorf("config: Scenario.Domains[%d] has no name", i)
		}
		if strings.ContainsAny(d.Name, "=,;:@ \t") {
			return fmt.Errorf("config: Scenario.Domains[%d] name %q contains reserved characters", i, d.Name)
		}
		if names[d.Name] {
			return fmt.Errorf("config: Scenario domain %q defined twice", d.Name)
		}
		names[d.Name] = true
		if len(d.Nodes) == 0 {
			return fmt.Errorf("config: Scenario domain %q has no nodes", d.Name)
		}
		seen := map[int]bool{}
		for _, n := range d.Nodes {
			if n < 0 {
				return fmt.Errorf("config: Scenario domain %q contains node %d", d.Name, n)
			}
			if seen[n] {
				return fmt.Errorf("config: Scenario domain %q lists node %d twice", d.Name, n)
			}
			seen[n] = true
		}
	}
	for i, ev := range s.Events {
		switch ev.Kind {
		case ScenarioSwitchFail:
			// Topology token, not a node domain: validated by shape here,
			// against the built fabric when the plan is armed.
			if _, _, err := ParseSwitchRef(ev.Domain); err != nil {
				return fmt.Errorf("config: Scenario.Events[%d]: switchfail targets a switch ref (leaf<k>/spine<k>/core<k>), got %q", i, ev.Domain)
			}
		case ScenarioPodFail:
			if _, ok := ParseScenarioPod(ev.Domain); !ok {
				return fmt.Errorf("config: Scenario.Events[%d]: podfail targets a pod token (pod<k>), got %q", i, ev.Domain)
			}
		default:
			if !names[ev.Domain] {
				return fmt.Errorf("config: Scenario.Events[%d] targets undefined domain %q", i, ev.Domain)
			}
		}
		if ev.At <= 0 {
			return fmt.Errorf("config: Scenario.Events[%d].At = %v (must be > 0)", i, ev.At)
		}
		if ev.Heal < 0 || ev.Jitter < 0 {
			return fmt.Errorf("config: Scenario.Events[%d] negative Heal/Jitter", i)
		}
		switch ev.Kind {
		case ScenarioCrash, ScenarioRackFail, ScenarioPodFail:
			if ev.Jitter > 0 && ev.Heal == 0 {
				return fmt.Errorf("config: Scenario.Events[%d]: Jitter without Heal (nothing restarts)", i)
			}
		case ScenarioSwitchFail:
			if ev.Jitter > 0 {
				return fmt.Errorf("config: Scenario.Events[%d]: switchfail takes no Jitter", i)
			}
		case ScenarioCut:
			if ev.Jitter > 0 {
				return fmt.Errorf("config: Scenario.Events[%d]: cut takes no Jitter", i)
			}
		case ScenarioGray:
			if ev.Heal <= 0 {
				return fmt.Errorf("config: Scenario.Events[%d]: gray needs a bounded window (Heal > 0)", i)
			}
			if ev.LossProb < 0 || ev.LossProb > 1 {
				return fmt.Errorf("config: Scenario.Events[%d].LossProb = %v outside [0, 1]", i, ev.LossProb)
			}
			if ev.LatencyFactor < 0 {
				return fmt.Errorf("config: Scenario.Events[%d].LatencyFactor = %v", i, ev.LatencyFactor)
			}
			if ev.LatencyFactor <= 1 && ev.LossProb == 0 {
				return fmt.Errorf("config: Scenario.Events[%d]: gray with no degradation (set lat>1 or loss>0)", i)
			}
		case ScenarioSlow:
			if ev.Heal <= 0 {
				return fmt.Errorf("config: Scenario.Events[%d]: slow needs a bounded window (Heal > 0)", i)
			}
			for _, f := range []float64{ev.GPUFactor, ev.CmdFactor, ev.DMAFactor} {
				if f < 0 || (f > 0 && f < 1) {
					return fmt.Errorf("config: Scenario.Events[%d] slow factor %v — factors are >= 1 (0/1 = off)", i, f)
				}
			}
			if ev.GPUFactor <= 1 && ev.CmdFactor <= 1 && ev.DMAFactor <= 1 {
				return fmt.Errorf("config: Scenario.Events[%d]: slow with every factor off", i)
			}
		default:
			return fmt.Errorf("config: Scenario.Events[%d] unknown kind %q", i, ev.Kind)
		}
		if ev.Asymmetric && ev.Kind != ScenarioCut && ev.Kind != ScenarioGray {
			return fmt.Errorf("config: Scenario.Events[%d]: Asymmetric applies to gray and cut only", i)
		}
	}
	return nil
}

// Crashes reports whether the scenario crash-stops nodes (a crash, rackfail
// or podfail event), which needs the health suite to detect it.
func (s ScenarioConfig) Crashes() bool {
	for _, ev := range s.Events {
		switch ev.Kind {
		case ScenarioCrash, ScenarioRackFail, ScenarioPodFail:
			return true
		}
	}
	return false
}

// DomainNodes returns the sorted node list of the named domain (nil when
// undefined).
func (s ScenarioConfig) DomainNodes(name string) []int {
	for _, d := range s.Domains {
		if d.Name == name {
			nodes := append([]int(nil), d.Nodes...)
			sort.Ints(nodes)
			return nodes
		}
	}
	return nil
}

// --- Flag-text round trip -------------------------------------------------
//
// Scenarios serialize to two flag strings so a chaossearch reproducer is a
// replayable command line:
//
//	-scenario-domains "rack0=0,1,2,3;rack1=4,5,6,7"
//	-scenario-events  "rackfail:rack0@70us,heal=60us,jitter=10us;gray:rack1@30us,heal=100us,lat=10,loss=0.05"
//
// FormatScenario* and ParseScenario* round-trip exactly (fuzzed by
// FuzzScenarioShrink): times render in the largest unit that divides them
// and parse from any of ps/ns/us/ms/s.

// FormatScenarioTime renders a sim.Time exactly: the largest whole unit
// that divides it (70us, 500ns, 3ps). ParseScenarioTime inverts it.
func FormatScenarioTime(t sim.Time) string {
	if t < 0 {
		return "-" + FormatScenarioTime(-t)
	}
	switch {
	case t == 0:
		return "0"
	case t%sim.Second == 0:
		return fmt.Sprintf("%ds", int64(t/sim.Second))
	case t%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", int64(t/sim.Millisecond))
	case t%sim.Microsecond == 0:
		return fmt.Sprintf("%dus", int64(t/sim.Microsecond))
	case t%sim.Nanosecond == 0:
		return fmt.Sprintf("%dns", int64(t/sim.Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// ParseScenarioTime parses a time literal with a ps/ns/us/ms/s suffix
// (integer or decimal mantissa); a bare "0" is zero.
func ParseScenarioTime(s string) (sim.Time, error) {
	if s == "0" {
		return 0, nil
	}
	units := []struct {
		suffix string
		scale  sim.Time
	}{{"ps", sim.Picosecond}, {"ns", sim.Nanosecond}, {"us", sim.Microsecond}, {"ms", sim.Millisecond}, {"s", sim.Second}}
	for _, u := range units {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok || num == "" {
			continue
		}
		// "5ms" would otherwise first match the bare-"s" unit via "5m".
		if u.suffix == "s" && (strings.HasSuffix(num, "p") || strings.HasSuffix(num, "n") ||
			strings.HasSuffix(num, "u") || strings.HasSuffix(num, "m")) {
			continue
		}
		f, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0, fmt.Errorf("config: bad time %q: %v", s, err)
		}
		return sim.Time(f*float64(u.scale) + 0.5), nil
	}
	return 0, fmt.Errorf("config: time %q needs a ps/ns/us/ms/s suffix", s)
}

// FormatScenarioDomains renders the domain list as flag text.
func FormatScenarioDomains(domains []ScenarioDomain) string {
	parts := make([]string, 0, len(domains))
	for _, d := range domains {
		nodes := make([]string, len(d.Nodes))
		for i, n := range d.Nodes {
			nodes[i] = strconv.Itoa(n)
		}
		parts = append(parts, d.Name+"="+strings.Join(nodes, ","))
	}
	return strings.Join(parts, ";")
}

// ParseScenarioDomains parses "rack0=0,1,2,3;rack1=4,5" flag text.
func ParseScenarioDomains(s string) ([]ScenarioDomain, error) {
	if s == "" {
		return nil, nil
	}
	var out []ScenarioDomain
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, list, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("config: scenario domain %q is not name=nodes", part)
		}
		d := ScenarioDomain{Name: name}
		for _, tok := range strings.Split(list, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return nil, fmt.Errorf("config: scenario domain %q: bad node %q", name, tok)
			}
			d.Nodes = append(d.Nodes, n)
		}
		out = append(out, d)
	}
	return out, nil
}

// FormatScenarioEvents renders the event list as flag text.
func FormatScenarioEvents(events []ScenarioEvent) string {
	parts := make([]string, 0, len(events))
	for _, ev := range events {
		var b strings.Builder
		fmt.Fprintf(&b, "%s:%s@%s", ev.Kind, ev.Domain, FormatScenarioTime(ev.At))
		if ev.Heal > 0 {
			fmt.Fprintf(&b, ",heal=%s", FormatScenarioTime(ev.Heal))
		}
		if ev.Jitter > 0 {
			fmt.Fprintf(&b, ",jitter=%s", FormatScenarioTime(ev.Jitter))
		}
		if ev.LatencyFactor > 0 {
			fmt.Fprintf(&b, ",lat=%s", strconv.FormatFloat(ev.LatencyFactor, 'g', -1, 64))
		}
		if ev.LossProb > 0 {
			fmt.Fprintf(&b, ",loss=%s", strconv.FormatFloat(ev.LossProb, 'g', -1, 64))
		}
		if ev.GPUFactor > 0 {
			fmt.Fprintf(&b, ",gpu=%s", strconv.FormatFloat(ev.GPUFactor, 'g', -1, 64))
		}
		if ev.CmdFactor > 0 {
			fmt.Fprintf(&b, ",cmd=%s", strconv.FormatFloat(ev.CmdFactor, 'g', -1, 64))
		}
		if ev.DMAFactor > 0 {
			fmt.Fprintf(&b, ",dma=%s", strconv.FormatFloat(ev.DMAFactor, 'g', -1, 64))
		}
		if ev.Asymmetric {
			b.WriteString(",asym")
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, ";")
}

// ParseScenarioEvents parses "kind:domain@time,key=value,..." flag text.
func ParseScenarioEvents(s string) ([]ScenarioEvent, error) {
	if s == "" {
		return nil, nil
	}
	var out []ScenarioEvent
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ",")
		kind, rest, ok := strings.Cut(fields[0], ":")
		if !ok {
			return nil, fmt.Errorf("config: scenario event %q is not kind:domain@time", part)
		}
		domain, atText, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("config: scenario event %q is not kind:domain@time", part)
		}
		at, err := ParseScenarioTime(atText)
		if err != nil {
			return nil, err
		}
		ev := ScenarioEvent{Kind: kind, Domain: domain, At: at}
		for _, f := range fields[1:] {
			f = strings.TrimSpace(f)
			if f == "asym" {
				ev.Asymmetric = true
				continue
			}
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("config: scenario event %q: bad field %q", part, f)
			}
			switch key {
			case "heal", "jitter":
				t, err := ParseScenarioTime(val)
				if err != nil {
					return nil, err
				}
				if key == "heal" {
					ev.Heal = t
				} else {
					ev.Jitter = t
				}
			case "lat", "loss", "gpu", "cmd", "dma":
				x, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("config: scenario event %q: bad %s %q", part, key, val)
				}
				switch key {
				case "lat":
					ev.LatencyFactor = x
				case "loss":
					ev.LossProb = x
				case "gpu":
					ev.GPUFactor = x
				case "cmd":
					ev.CmdFactor = x
				case "dma":
					ev.DMAFactor = x
				}
			default:
				return nil, fmt.Errorf("config: scenario event %q: unknown field %q", part, key)
			}
		}
		out = append(out, ev)
	}
	return out, nil
}
