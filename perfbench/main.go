// Command perfbench is the simulator's benchmark. It runs simulation cells
// (one fresh node.NewCluster plus one driver call, run to completion) of a
// named workload, checks every cell's outputs, and prints the end-to-end
// metrics, or with --trace 1 the per-layer ones, as one JSON line.
//
//	bash perfbench/run.sh --workload ring-allreduce --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, metrics and records.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

//go:embed reference.json
var referenceJSON []byte

func main() {
	name := flag.String("workload", "", "workload to run: ring-allreduce, fattree-incast or allreduce-lossy")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "run the passes that took this many seconds on the reference host")
	trace := flag.Int("trace", 0, "1 runs traced: CPU profile and spans, per-layer metrics")
	record := flag.String("record", "", "run every cell of every workload once, write their digests to this file and exit")
	flag.Parse()

	if *record != "" {
		if err := recordReference(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var ref map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference:", err)
		os.Exit(1)
	}
	// One P: the default engine is serial, and with more Ps every proc
	// handoff can wake an idle P's thread, so a cell's time would depend on
	// how fast the host's scheduler runs that thread rather than on the
	// program.
	runtime.GOMAXPROCS(1)
	res := measure(w, *seed, *seconds, *trace == 1, ref)
	if res.profileErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", res.profileErr)
		os.Exit(1)
	}
	if *trace == 1 {
		if err := res.writeTrace(traceDir(w.name, *seed)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
			os.Exit(1)
		}
	}
	fmt.Println(res.summary())
	out, err := json.Marshal(res.report(*trace == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// traceDir is where a traced run writes its spans and CPU profiles, under
// the build directory of the checkout.
func traceDir(workload string, seed int64) string {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	return fmt.Sprintf("%s/perfbench-trace/%s-seed%d", base, workload, seed)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// modules are the layers whose profile buckets are reported; samples in
// any other repository module go to "other".
var modules = []string{"sim", "gpu", "nic", "network", "portals", "collective", "node", "fault", "audit", "core", "cpu", "memsys", "backends", harnessModule}

func (r *results) report(traced bool) report {
	m := map[string]metric{}
	if !traced {
		cellMs := r.scaled(r.cellMs)
		tail, _ := tailPercentile(cellMs)
		m["cells_per_s"] = metric{float64(r.cells) / (sum(cellMs) / 1e3), "1/s"}
		m["cell_ms.p50"] = metric{classMedian(cellMs, r.cellClass), "ms"}
		m["cell_ms.tail"] = metric{tail, "ms"}
		m["setup_s"] = metric{classMedian(r.scaled(r.setupS), r.cellClass), "s"}
		m["allocs_per_cell"] = metric{float64(r.allocs) / float64(r.cells), "count"}
		m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		return report{Correct: r.failed == 0, Attempted: r.cells, Failed: r.failed, Metrics: m}
	}
	per := func(v float64) float64 { return v / float64(r.cells) }
	c := r.counters
	m["sim.events"] = metric{per(c.events), "count"}
	m["gpu.kernels"] = metric{per(c.kernels), "count"}
	m["nic.commands"] = metric{per(c.commands), "count"}
	m["nic.trigger_fires"] = metric{per(c.triggerFires), "count"}
	m["nic.retransmits"] = metric{per(c.retransmits), "count"}
	m["nic.acks"] = metric{per(c.acks), "count"}
	m["nic.ecn_backoffs"] = metric{per(c.ecnBackoffs), "count"}
	m["network.msgs"] = metric{per(c.msgs), "count"}
	m["network.bytes"] = metric{per(c.bytes), "B"}
	m["network.goodput"] = metric{c.payload / c.bytes, "ratio"}
	m["fault.pkts_dropped"] = metric{per(c.dropped), "count"}
	m["audit.checks"] = metric{per(c.auditChecks), "count"}
	m["audit.violations"] = metric{per(c.violations), "count"}
	m["model.sim_us"] = metric{per(c.simUs), "us"}
	m["span.drive_ms"] = metric{median(r.driveMs), "ms"}
	m["span.check_ms"] = metric{median(r.checkMs), "ms"}

	a := r.prof
	known := map[string]bool{"runtime": true, "sim.loop": true}
	for _, mod := range modules {
		known[mod] = true
		m[mod+".self_cpu_s"] = metric{a.self[mod], "s"}
		if mod != "sim" {
			m[mod+".charged_cpu_s"] = metric{a.charged[mod], "s"}
		}
	}
	var otherSelf, otherCharged float64
	for mod, v := range a.self {
		if !known[mod] {
			otherSelf += v
		}
	}
	for mod, v := range a.charged {
		if !known[mod] {
			otherCharged += v
		}
	}
	m["other.self_cpu_s"] = metric{otherSelf, "s"}
	m["other.charged_cpu_s"] = metric{otherCharged, "s"}
	m["runtime.self_cpu_s"] = metric{a.self["runtime"], "s"}
	m["sim.loop_cpu_s"] = metric{a.charged["sim.loop"], "s"}
	m["sim.switch_cpu_s"] = metric{a.switchS, "s"}
	m["runtime.gc_cpu_s"] = metric{r.gcCPU, "s"}
	m["trace.cpu_s"] = metric{a.total, "s"}
	m["trace.overhead"] = metric{r.msPerCell(true) / r.msPerCell(false), "ratio"}
	return report{Correct: r.failed == 0, Attempted: r.cells, Failed: r.failed, Metrics: m}
}

// summary is a human-readable line with the sample counts behind the
// percentiles.
func (r *results) summary() string {
	cellMs := r.scaled(r.cellMs)
	tail, pct := tailPercentile(cellMs)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s seed=%d: cells=%d failed=%d passes=%d", r.workload, r.seed, r.cells, r.failed, r.passes)
	fmt.Fprintf(&b, " cell_ms.p50=%.3f (n=%d in %d classes) cell_ms.tail=%.3f at p%.1f (n=%d)",
		classMedian(cellMs, r.cellClass), len(cellMs), countClasses(r.cellClass), tail, pct, len(cellMs))
	if !r.traced {
		fmt.Fprintf(&b, " calibration_ms=%.2f (median of %d, reference %.2f)", median(r.calMs), len(r.calMs), referenceCalibrationMs)
	}
	fmt.Fprintf(&b, " cpu_cells_per_s=%.4g wall_cells_per_s=%.4g",
		float64(r.cells)/(sum(r.cellMs)/1e3), float64(r.cells)/(r.wallMs/1e3))
	if r.traced {
		fmt.Fprintf(&b, " traced_cells=%d profile_cpu_s=%.2f", len(r.driveMs), r.prof.total)
	}
	return b.String()
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func countClasses(class []string) int {
	seen := map[string]bool{}
	for _, c := range class {
		seen[c] = true
	}
	return len(seen)
}

// classMedian is the median of xs taking each cell class at its own
// median: the classes, ordered by their medians and weighted by their cell
// counts, are walked to the middle cell. A workload mixes classes whose
// times differ several-fold, so the plain median of all cells falls in the
// gap between two classes and takes the extreme sample of each, which
// varies from run to run far more than either class does.
func classMedian(xs []float64, class []string) float64 {
	byClass := map[string][]float64{}
	for i, x := range xs {
		byClass[class[i]] = append(byClass[class[i]], x)
	}
	type group struct {
		med float64
		n   int
	}
	var gs []group
	for _, v := range byClass {
		gs = append(gs, group{median(v), len(v)})
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].med < gs[j].med })
	half, seen := float64(len(xs))/2, 0
	for i, g := range gs {
		seen += g.n
		switch {
		case float64(seen) > half:
			return g.med
		case float64(seen) == half && i+1 < len(gs):
			return (g.med + gs[i+1].med) / 2
		}
	}
	return gs[len(gs)-1].med
}

// tailPercentile returns the highest percentile of xs that has at least ten
// samples above it, and which percentile that is. Below 21 samples that
// percentile would not exceed the median, and the median is returned.
func tailPercentile(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 21 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// recordReference runs every cell every workload can produce once and
// writes their digests. A cell that fails any other check stops the
// recording: a reference is only taken from correct, audit-clean runs.
func recordReference(path string) error {
	ref := map[string]string{}
	for _, w := range workloads {
		for _, c := range w.allCells() {
			out := runCell(c, nil)
			if out.err != nil && !errors.Is(out.err, errMissingReference) {
				return fmt.Errorf("record %s: %w", c.key, out.err)
			}
			ref[c.key] = out.digest
		}
	}
	out, err := json.MarshalIndent(ref, "", "  ") // keys sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
