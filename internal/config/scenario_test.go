package config

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// scenarioFixture is a valid config exercising every event kind and field.
func scenarioFixture() ScenarioConfig {
	return ScenarioConfig{
		Seed: 7,
		Domains: []ScenarioDomain{
			{Name: "rack0", Nodes: []int{0, 1, 2, 3}},
			{Name: "rack1", Nodes: []int{4, 5, 6, 7}},
			{Name: "pair", Nodes: []int{2, 5}},
		},
		Events: []ScenarioEvent{
			{Kind: ScenarioRackFail, Domain: "rack0", At: 70 * sim.Microsecond,
				Heal: 60 * sim.Microsecond, Jitter: 10 * sim.Microsecond},
			{Kind: ScenarioCrash, Domain: "pair", At: 20 * sim.Microsecond},
			{Kind: ScenarioCut, Domain: "rack1", At: 30 * sim.Microsecond,
				Heal: 40 * sim.Microsecond, Asymmetric: true},
			{Kind: ScenarioGray, Domain: "pair", At: 10 * sim.Microsecond,
				Heal: 100 * sim.Microsecond, LatencyFactor: 10, LossProb: 0.05},
			{Kind: ScenarioSlow, Domain: "rack1", At: 5 * sim.Microsecond,
				Heal: 50 * sim.Microsecond, GPUFactor: 8, CmdFactor: 2, DMAFactor: 4},
			{Kind: ScenarioSwitchFail, Domain: "spine1", At: 70 * sim.Microsecond,
				Heal: 60 * sim.Microsecond},
			{Kind: ScenarioPodFail, Domain: "pod0", At: 70 * sim.Microsecond,
				Heal: 60 * sim.Microsecond, Jitter: 10 * sim.Microsecond},
		},
	}
}

func TestScenarioValidateAccepts(t *testing.T) {
	cfg := Default()
	cfg.Scenario = scenarioFixture()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

func TestScenarioValidateRejects(t *testing.T) {
	base := scenarioFixture()
	cases := []struct {
		name   string
		mutate func(*ScenarioConfig)
		want   string
	}{
		{"unnamed domain", func(s *ScenarioConfig) { s.Domains[0].Name = "" }, "no name"},
		{"reserved chars", func(s *ScenarioConfig) { s.Domains[0].Name = "ra=ck" }, "reserved"},
		{"duplicate domain", func(s *ScenarioConfig) { s.Domains[1].Name = "rack0" }, "twice"},
		{"empty domain", func(s *ScenarioConfig) { s.Domains[0].Nodes = nil }, "no nodes"},
		{"negative node", func(s *ScenarioConfig) { s.Domains[0].Nodes = []int{-1} }, "node -1"},
		{"duplicate node", func(s *ScenarioConfig) { s.Domains[0].Nodes = []int{1, 1} }, "twice"},
		{"undefined domain", func(s *ScenarioConfig) { s.Events[0].Domain = "rack9" }, "undefined"},
		{"zero At", func(s *ScenarioConfig) { s.Events[0].At = 0 }, "must be > 0"},
		{"negative heal", func(s *ScenarioConfig) { s.Events[0].Heal = -1 }, "negative"},
		{"jitter without heal", func(s *ScenarioConfig) { s.Events[0].Heal = 0 }, "Jitter without Heal"},
		{"cut with jitter", func(s *ScenarioConfig) { s.Events[2].Jitter = sim.Microsecond }, "no Jitter"},
		{"unbounded gray", func(s *ScenarioConfig) { s.Events[3].Heal = 0 }, "bounded window"},
		{"loss out of range", func(s *ScenarioConfig) { s.Events[3].LossProb = 1.5 }, "outside"},
		{"inert gray", func(s *ScenarioConfig) { s.Events[3].LatencyFactor = 1; s.Events[3].LossProb = 0 }, "no degradation"},
		{"unbounded slow", func(s *ScenarioConfig) { s.Events[4].Heal = 0 }, "bounded window"},
		{"sub-1 slow factor", func(s *ScenarioConfig) { s.Events[4].GPUFactor = 0.5 }, ">= 1"},
		{"inert slow", func(s *ScenarioConfig) {
			s.Events[4].GPUFactor, s.Events[4].CmdFactor, s.Events[4].DMAFactor = 1, 0, 0
		}, "every factor off"},
		{"unknown kind", func(s *ScenarioConfig) { s.Events[0].Kind = "meteor" }, "unknown kind"},
		{"asym non-cut", func(s *ScenarioConfig) { s.Events[1].Asymmetric = true }, "cut only"},
		{"switchfail bad ref", func(s *ScenarioConfig) { s.Events[5].Domain = "rack0" }, "switch ref"},
		{"switchfail jitter", func(s *ScenarioConfig) { s.Events[5].Jitter = sim.Microsecond }, "no Jitter"},
		{"podfail bad token", func(s *ScenarioConfig) { s.Events[6].Domain = "podX" }, "pod token"},
		{"podfail jitter without heal", func(s *ScenarioConfig) { s.Events[6].Heal = 0 }, "Jitter without Heal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			sc.Domains = append([]ScenarioDomain(nil), base.Domains...)
			sc.Events = append([]ScenarioEvent(nil), base.Events...)
			tc.mutate(&sc)
			cfg := Default()
			cfg.Scenario = sc
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestScenarioZeroValueDisabled(t *testing.T) {
	var sc ScenarioConfig
	if sc.Enabled() {
		t.Error("zero scenario Enabled")
	}
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config with zero scenario rejected: %v", err)
	}
}

func TestScenarioDomainNodesSorted(t *testing.T) {
	sc := ScenarioConfig{Domains: []ScenarioDomain{{Name: "d", Nodes: []int{3, 1, 2}}}}
	if got := sc.DomainNodes("d"); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("DomainNodes(d) = %v", got)
	}
	if got := sc.DomainNodes("missing"); got != nil {
		t.Errorf("DomainNodes(missing) = %v", got)
	}
}

func TestScenarioTimeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		t    sim.Time
		text string
	}{
		{0, "0"},
		{3 * sim.Picosecond, "3ps"},
		{500 * sim.Nanosecond, "500ns"},
		{70 * sim.Microsecond, "70us"},
		{5 * sim.Millisecond, "5ms"},
		{2 * sim.Second, "2s"},
		{1500 * sim.Nanosecond, "1500ns"}, // not a whole us: next unit down
	} {
		if got := FormatScenarioTime(tc.t); got != tc.text {
			t.Errorf("FormatScenarioTime(%d) = %q, want %q", tc.t, got, tc.text)
		}
		back, err := ParseScenarioTime(tc.text)
		if err != nil || back != tc.t {
			t.Errorf("ParseScenarioTime(%q) = %v, %v, want %d", tc.text, back, err, tc.t)
		}
	}
	// Decimal mantissas parse too.
	if got, err := ParseScenarioTime("1.5us"); err != nil || got != 1500*sim.Nanosecond {
		t.Errorf("ParseScenarioTime(1.5us) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "5", "5m", "fast", "us"} {
		if _, err := ParseScenarioTime(bad); err == nil {
			t.Errorf("ParseScenarioTime(%q) accepted", bad)
		}
	}
}

func TestScenarioFlagRoundTrip(t *testing.T) {
	sc := scenarioFixture()
	doms, err := ParseScenarioDomains(FormatScenarioDomains(sc.Domains))
	if err != nil {
		t.Fatalf("domain round trip: %v", err)
	}
	if !reflect.DeepEqual(doms, sc.Domains) {
		t.Errorf("domains round-tripped to %+v", doms)
	}
	evs, err := ParseScenarioEvents(FormatScenarioEvents(sc.Events))
	if err != nil {
		t.Fatalf("event round trip: %v", err)
	}
	if !reflect.DeepEqual(evs, sc.Events) {
		t.Errorf("events round-tripped to %+v\nwant %+v", evs, sc.Events)
	}
}

func TestScenarioParseErrors(t *testing.T) {
	if _, err := ParseScenarioDomains("rack0"); err == nil {
		t.Error("domain without = accepted")
	}
	if _, err := ParseScenarioDomains("rack0=a,b"); err == nil {
		t.Error("non-numeric nodes accepted")
	}
	for _, bad := range []string{
		"crash@50us",               // no domain separator
		"crash:rack0",              // no @time
		"crash:rack0@50us,heal",    // field without =
		"crash:rack0@50us,warp=3",  // unknown field
		"gray:rack0@50us,lat=slow", // non-numeric factor
	} {
		if _, err := ParseScenarioEvents(bad); err == nil {
			t.Errorf("ParseScenarioEvents(%q) accepted", bad)
		}
	}
	// Empty inputs are nil, not errors (flag defaults).
	if doms, err := ParseScenarioDomains(""); doms != nil || err != nil {
		t.Errorf("ParseScenarioDomains(\"\") = %v, %v", doms, err)
	}
	if evs, err := ParseScenarioEvents(""); evs != nil || err != nil {
		t.Errorf("ParseScenarioEvents(\"\") = %v, %v", evs, err)
	}
}

// FuzzScenarioRoundTrip asserts parse(format(x)) == x for any parseable
// event text: formatting a parsed scenario and reparsing it must be the
// identity, the property chaossearch reproducer flags rely on.
func FuzzScenarioRoundTrip(f *testing.F) {
	f.Add("rackfail:rack0@70us,heal=60us,jitter=10us;gray:rack1@30us,heal=100us,lat=10,loss=0.05")
	f.Add("crash:pair@1us,heal=1ps")
	f.Add("cut:rack1@30us,heal=40us,asym;slow:rack1@5us,heal=50us,gpu=8,cmd=2,dma=4")
	f.Add("gray:n2@1us,heal=4999us,lat=10,loss=0.05,asym")
	f.Add("switchfail:spine1@70us,heal=60us;podfail:pod0@70us,heal=60us,jitter=10us")
	f.Add("switchfail:leaf0@5us;switchfail:core2@1ms,heal=2ms")
	f.Fuzz(func(t *testing.T, text string) {
		evs, err := ParseScenarioEvents(text)
		if err != nil {
			return
		}
		// The identity holds on the valid scenario space (the formatter
		// omits non-positive fields, which only a validation-rejected event
		// can carry). Synthesize a domain per referenced name and gate.
		sc := ScenarioConfig{Events: evs}
		seen := map[string]bool{}
		for _, ev := range evs {
			if !seen[ev.Domain] {
				seen[ev.Domain] = true
				sc.Domains = append(sc.Domains, ScenarioDomain{Name: ev.Domain, Nodes: []int{0}})
			}
		}
		if sc.validate() != nil {
			return
		}
		rendered := FormatScenarioEvents(evs)
		back, err := ParseScenarioEvents(rendered)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", rendered, text, err)
		}
		if !reflect.DeepEqual(back, evs) {
			t.Fatalf("round trip changed events: %+v -> %q -> %+v", evs, rendered, back)
		}
	})
}
