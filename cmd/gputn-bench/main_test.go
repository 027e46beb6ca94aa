package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
)

// docFiles hold every gputn-bench command line a reader may copy.
var docFiles = []string{
	"../../README.md",
	"../../EXPERIMENTS.md",
	"../../DESIGN.md",
	"../../Makefile",
	"../../.github/workflows/ci.yml",
	"../../.claude/skills/verify/SKILL.md",
}

var commentRE = regexp.MustCompile(`(^|\s)#.*$`)

// docCommands returns the argument lists of every gputn-bench invocation
// in text: "# ..." comments are stripped, "\" continuations joined, and
// each command ends at a backtick, pipe or redirection.
func docCommands(text string) [][]string {
	var lines []string
	cont := ""
	for _, line := range strings.Split(text, "\n") {
		line = cont + commentRE.ReplaceAllString(line, "")
		if strings.HasSuffix(strings.TrimRight(line, " \t"), `\`) {
			cont = strings.TrimSuffix(strings.TrimRight(line, " \t"), `\`) + " "
			continue
		}
		cont = ""
		lines = append(lines, line)
	}
	var cmds [][]string
	for _, line := range lines {
		for {
			i := strings.Index(line, "gputn-bench")
			if i < 0 {
				break
			}
			line = line[i+len("gputn-bench"):]
			if strings.HasPrefix(strings.TrimLeft(line, " \t"), "-") {
				cmds = append(cmds, shellWords(line))
			}
		}
	}
	return cmds
}

// shellWords splits s like a POSIX shell would for the quoting the docs
// use, stopping at the first unquoted backtick, pipe or redirection.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case strings.ContainsRune("`|>)", r):
			if inWord {
				words = append(words, cur.String())
			}
			return words
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// Every documented command line must name only flags and experiments that
// exist and describe a valid configuration.
func TestDocCommandLinesParse(t *testing.T) {
	total := 0
	for _, path := range docFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range docCommands(string(data)) {
			total++
			o, err := parseArgs(args, io.Discard)
			if err != nil {
				t.Errorf("%s: gputn-bench %s: %v", path, strings.Join(args, " "), err)
				continue
			}
			if err := o.cfg.Validate(); err != nil {
				t.Errorf("%s: gputn-bench %s: %v", path, strings.Join(args, " "), err)
			}
			if _, err := experimentsToRun(o.exp); err != nil {
				t.Errorf("%s: gputn-bench %s: %v", path, strings.Join(args, " "), err)
			}
		}
	}
	if total < 30 {
		t.Errorf("found only %d gputn-bench command lines in the docs; is the extractor broken?", total)
	}
}

func TestDocCommandsExtractor(t *testing.T) {
	text := "go run ./cmd/gputn-bench -exp crash -reliable \\\n" +
		"    -scenario-domains n2=2 -scenario-events 'cut:n2@5us,asym'   # node 2 is cut\n" +
		"*Regenerate:* `gputn-bench -exp fig9` · every `gputn-bench` experiment\n" +
		"go run ./cmd/gputn-bench -exp fig10 -topo fattree | tee a.txt\n"
	got := docCommands(text)
	want := [][]string{
		{"-exp", "crash", "-reliable", "-scenario-domains", "n2=2", "-scenario-events", "cut:n2@5us,asym"},
		{"-exp", "fig9"},
		{"-exp", "fig10", "-topo", "fattree"},
	}
	if len(got) != len(want) {
		t.Fatalf("docCommands = %q, want %q", got, want)
	}
	for i := range want {
		if strings.Join(got[i], "\x00") != strings.Join(want[i], "\x00") {
			t.Errorf("command %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// The per-class schedule flags are gone: every timed fault is a
// -scenario-events line.
func TestDeletedScheduleFlagsRejected(t *testing.T) {
	deleted := []string{
		"crash-node", "crash-at-us", "crash-restart-us",
		"part-a", "part-b", "part-at-us", "part-heal-us", "part-asym",
		"degrade-src", "degrade-dst", "degrade-from-us", "degrade-until-us",
		"degrade-factor", "degrade-loss", "degrade-ramp",
		"slow-seed", "slow-node", "slow-from-us", "slow-until-us", "slow-gpu-factor",
		"slow-cmd-factor", "slow-stall-prob", "slow-stall-us", "slow-dma-factor",
		"switch-tier", "switch-index", "switch-a", "switch-b", "switch-at-us", "switch-restore-us",
	}
	if len(deleted) != 30 {
		t.Fatalf("%d deleted flags listed, want 30", len(deleted))
	}
	for _, name := range deleted {
		var out strings.Builder
		if _, err := parseArgs([]string{"-" + name + "=1"}, &out); err == nil {
			t.Errorf("-%s parsed", name)
		} else if !strings.Contains(out.String(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s: stderr %q does not name the undefined flag", name, out.String())
		}
	}
}

// A scenario that crash-stops nodes arms the health suite, as the retired
// -crash-at-us flag did; a scenario that only cuts links does not.
func TestScenarioCrashArmsHealth(t *testing.T) {
	for _, tc := range []struct {
		events string
		health bool
	}{
		{"crash:n1@70us,heal=60us", true},
		{"rackfail:n1@70us,heal=60us", true},
		{"cut:n1@5us,asym", false},
		{"gray:n1@1us,heal=4999us,lat=10,loss=0.05,asym", false},
	} {
		o, err := parseArgs([]string{"-scenario-domains", "n1=1", "-scenario-events", tc.events}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.events, err)
		}
		if o.cfg.Health.Enabled != tc.health {
			t.Errorf("%s: Health.Enabled = %v, want %v", tc.events, o.cfg.Health.Enabled, tc.health)
		}
	}
}

// Switch events name fat-tree switches, so they need -topo fattree.
func TestSwitchScenarioNeedsFatTree(t *testing.T) {
	for _, events := range []string{"switchfail:spine0@10us", "podfail:pod0@10us"} {
		if _, err := parseArgs([]string{"-scenario-events", events}, io.Discard); err == nil {
			t.Errorf("%s accepted on the star", events)
		}
		if _, err := parseArgs([]string{"-topo", "fattree", "-scenario-events", events}, io.Discard); err != nil {
			t.Errorf("%s on a fat-tree: %v", events, err)
		}
	}
}

// Every registry experiment has a runner, and every runner is registered.
func TestRunnersMatchRegistry(t *testing.T) {
	runners := experimentRunners(&options{})
	for _, name := range bench.ExperimentNames(false) {
		if runners[name] == nil {
			t.Errorf("experiment %s has no runner", name)
		}
		delete(runners, name)
	}
	for name := range runners {
		t.Errorf("runner %s is not in the experiment registry", name)
	}
	if _, err := experimentsToRun("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
