package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

// counters are the layers' public counters, summed over a run's cells.
type counters struct {
	events, kernels                                        float64
	commands, triggerFires, retransmits, acks, ecnBackoffs float64
	msgs, bytes, payload, dropped                          float64
	auditChecks, violations, simUs                         float64
}

// span is one timed call the benchmark makes into the program.
type span struct {
	Cell    string `json:"cell"`
	Name    string `json:"name"` // setup, drive or check
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type results struct {
	workload string
	seed     int64
	traced   bool

	cells, failed, passes int
	// Every cell's process CPU time, with its share of the collections
	// (see collector), and its cluster build time.
	cellMs, setupS []float64
	// cellScale turns a cell's CPU time into the reference host's (see
	// calibrate.go).
	cellScale    []float64
	calMs        []float64 // every calibration's CPU time
	cellClass    []string  // every cell's class
	cellProfiled []bool    // whether the cell ran in a profiled pass
	wallMs       float64   // summed wall-clock cell time, collections left out
	allocs       uint64
	counters     counters

	// Traced runs alternate untraced and traced passes.
	driveMs, checkMs []float64 // traced cells
	prof             *attribution
	profiles         [][]byte
	spans            []span
	gcCPU            float64
	profileErr       error // a traced run without its profile has no per-layer numbers
}

// msPerCell is the mean cell time of the profiled or of the untraced cells.
func (r *results) msPerCell(profiled bool) float64 {
	var total float64
	var n int
	for i, p := range r.cellProfiled {
		if p == profiled {
			total += r.cellMs[i]
			n++
		}
	}
	return total / float64(n)
}

// measure runs the passes of w that took seconds on the reference host.
// Cells run one after another on a goroutine of their own: a caller locked
// to its OS thread (a package init, or runtime.LockOSThread) would
// otherwise make every proc handoff an OS thread switch and slow cells by
// an order of magnitude.
func measure(w workload, seed int64, seconds float64, traced bool, ref map[string]string) *results {
	done := make(chan *results)
	go func() { done <- measureLoop(w, seed, seconds, traced, ref) }()
	return <-done
}

func measureLoop(w workload, seed int64, seconds float64, traced bool, ref map[string]string) *results {
	r := &results{workload: w.name, seed: seed, traced: traced, prof: newAttribution()}
	rng := rand.New(rand.NewSource(seed))
	epoch := time.Now()
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	col := newCollector()
	defer col.stop()
	// Only untraced runs report host time, so only they calibrate.
	var segCPU float64 // cell CPU ms since the last calibration
	if !traced {
		r.calMs = append(r.calMs, calibrate())
	}
	// A traced run needs at least one untraced and one traced pass.
	passes := max(1, int(math.Round(seconds/w.passSeconds)))
	if traced {
		passes = max(2, passes)
	}
	for pass := 0; pass < passes; pass++ {
		cells := w.pass(rng)
		profiled := traced && pass%2 == 1
		var buf bytes.Buffer
		if profiled {
			metrics.Read(gc)
			r.gcCPU -= gc[0].Value.Float64()
			if err := pprof.StartCPUProfile(&buf); err != nil {
				r.profileErr = fmt.Errorf("cpu profile: %w", err)
				return r
			}
		}
		for i, c := range cells {
			out := runCell(c, ref)
			r.add(c, out, profiled, epoch)
			col.afterCell(r, out.allocBytes)
			segCPU += r.cellMs[len(r.cellMs)-1]
			last := pass == passes-1 && i == len(cells)-1
			if !traced && (segCPU >= ms(calibrateEvery) || last) {
				r.calMs = append(r.calMs, calibrate())
				n := len(r.calMs)
				r.scaleTo(referenceCalibrationMs / ((r.calMs[n-2] + r.calMs[n-1]) / 2))
				segCPU = 0
			}
		}
		r.passes++
		if profiled {
			pprof.StopCPUProfile()
			metrics.Read(gc)
			r.gcCPU += gc[0].Value.Float64()
			p, err := parseProfile(buf.Bytes())
			if err != nil {
				r.profileErr = err
				return r
			}
			r.prof.add(p)
			r.profiles = append(r.profiles, buf.Bytes())
		}
	}
	col.collect(r)
	r.scaleTo(1) // traced runs
	return r
}

// scaleTo sets the scale of every cell since the last calibration.
func (r *results) scaleTo(scale float64) {
	for len(r.cellScale) < len(r.cellMs) {
		r.cellScale = append(r.cellScale, scale)
	}
}

// scaled is xs, one value per cell, in the reference host's CPU time.
func (r *results) scaled(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * r.cellScale[i]
	}
	return out
}

// add folds one cell into the run's results.
func (r *results) add(c cell, out cellOutcome, profiled bool, epoch time.Time) {
	r.cells++
	if out.err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: cell %s failed: %v\n", c.key, out.err)
		}
	}
	cellMs := ms(out.start.cpuTo(out.end))
	r.cellMs = append(r.cellMs, cellMs)
	r.setupS = append(r.setupS, out.start.cpuTo(out.built).Seconds())
	r.wallMs += ms(out.end.wall.Sub(out.start.wall))
	r.cellClass = append(r.cellClass, c.class)
	r.cellProfiled = append(r.cellProfiled, profiled)
	r.allocs += out.allocs
	k := &r.counters
	k.events += float64(out.events)
	k.payload += float64(c.payload)
	if cl := out.cl; cl != nil {
		for i, nd := range cl.Nodes {
			s := nd.NIC.Stats()
			k.kernels += float64(nd.GPU.KernelsLaunched())
			k.commands += float64(s.CommandsExecuted)
			k.triggerFires += float64(s.TriggerFires)
			k.retransmits += float64(s.Retransmits)
			k.acks += float64(s.AcksSent)
			k.ecnBackoffs += float64(s.ECNBackoffs)
			k.msgs += float64(cl.Fabric.MessagesDelivered(network.NodeID(i)))
			k.bytes += float64(cl.Fabric.BytesDelivered(network.NodeID(i)))
		}
		k.dropped += float64(cl.Injector.Stats().PacketsDropped)
		k.auditChecks += float64(cl.Audit.ChecksEvaluated())
		vs, dropped := cl.Audit.Violations()
		k.violations += float64(len(vs) + dropped)
	}
	var simEnd sim.Time
	for _, t := range out.perRank {
		simEnd = max(simEnd, t)
	}
	k.simUs += simEnd.Us()
	if !profiled {
		return
	}
	r.driveMs = append(r.driveMs, ms(out.built.cpuTo(out.driven)))
	r.checkMs = append(r.checkMs, ms(out.driven.cpuTo(out.checked)))
	at := func(t stamp) int64 { return t.wall.Sub(epoch).Nanoseconds() }
	r.spans = append(r.spans,
		span{c.key, "setup", at(out.start), at(out.built)},
		span{c.key, "drive", at(out.built), at(out.driven)},
		span{c.key, "check", at(out.driven), at(out.checked)})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// A collector runs the garbage collector between cells, never inside one,
// with the runtime's default policy: a collection once the heap has grown
// by as many bytes as the previous collection left live, and by at least
// 4 MB (GOGC=100). Left to the runtime, a collection starts inside whichever
// cell crosses the heap goal, and marking the heap that the finished
// clusters keep live (README, Findings) can more than double that cell's
// time. Which cells those are shifts from run to run, and the median of a
// workload whose cells are half with and half without a collection jumps
// between the two. Here each collection's CPU time is measured and shared
// among the cells since the previous collection by the bytes they
// allocated, so every collection is paid for by the cells whose garbage
// it collects, and the cells' times add up to all the CPU the run spent.
type collector struct {
	samples   []metrics.Sample
	lastBytes uint64 // allocated bytes at the last collection
	liveBytes uint64 // heap the last collection left live
	pending   []int  // cells since the last collection
	pendingB  []uint64
	oldGC     int
}

const minHeapGrowth = 4 << 20

func newCollector() *collector {
	c := &collector{samples: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}}
	c.oldGC = debug.SetGCPercent(-1)
	runtime.GC() // start from a collected heap
	c.read()
	return c
}

func (c *collector) stop() { debug.SetGCPercent(c.oldGC) }

func (c *collector) read() {
	metrics.Read(c.samples)
	c.lastBytes, c.liveBytes = c.samples[0].Value.Uint64(), c.samples[1].Value.Uint64()
}

// afterCell notes the last cell of r, which allocated bytes, and collects
// once the heap has grown past its goal.
func (c *collector) afterCell(r *results, bytes uint64) {
	c.pending = append(c.pending, len(r.cellMs)-1)
	c.pendingB = append(c.pendingB, bytes)
	metrics.Read(c.samples)
	if c.samples[0].Value.Uint64()-c.lastBytes >= max(c.liveBytes, minHeapGrowth) {
		c.collect(r)
	}
}

// collect runs a collection and charges its CPU time to the pending cells.
func (c *collector) collect(r *results) {
	if len(c.pending) == 0 {
		return
	}
	t0 := processCPU()
	runtime.GC()
	cost := ms(processCPU() - t0)
	var total uint64
	for _, b := range c.pendingB {
		total += b
	}
	for j, i := range c.pending {
		share := 1 / float64(len(c.pending))
		if total > 0 {
			share = float64(c.pendingB[j]) / float64(total)
		}
		r.cellMs[i] += cost * share
	}
	c.pending, c.pendingB = c.pending[:0], c.pendingB[:0]
	c.read()
}

// A stamp is a reading of both clocks. Cell metrics take the process's CPU
// time: the time the host's other tenants take from a run (hypervisor
// steal, other containers on the cores) does not count in it, which the
// wall clock cannot exclude. The wall clock places spans on a timeline.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), processCPU()} }

func (s stamp) isZero() bool { return s.wall.IsZero() }

// cpuTo is the process CPU time from s to t.
func (s stamp) cpuTo(t stamp) time.Duration { return t.cpu - s.cpu }

// processCPU is the user and system time of every thread of the process,
// to the nanosecond (CLOCK_PROCESS_CPUTIME_ID).
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}

// cellOutcome is one cell's timings, counters and verdict.
type cellOutcome struct {
	cl                                 *node.Cluster
	perRank                            []sim.Time
	start, built, driven, checked, end stamp
	events                             uint64
	allocs, allocBytes                 uint64
	digest                             string
	err                                error // nil when every check passed
}

var errMissingReference = errors.New("no recorded reference")

// runCell builds the cell's cluster, drives it and checks its outputs. A
// panic anywhere in the cell is a failed cell, not a failed run.
func runCell(c cell, ref map[string]string) (o cellOutcome) {
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	a0, b0 := allocs[0].Value.Uint64(), allocs[1].Value.Uint64()
	o.start = now()
	defer func() {
		if p := recover(); p != nil {
			o.err = fmt.Errorf("panic: %v", p)
		}
		o.end = now()
		for _, t := range []*stamp{&o.built, &o.driven, &o.checked} {
			if t.isZero() {
				*t = o.end
			}
		}
		metrics.Read(allocs)
		o.allocs = allocs[0].Value.Uint64() - a0
		o.allocBytes = allocs[1].Value.Uint64() - b0
	}()
	cl := node.NewCluster(c.cfg, c.nodes)
	o.built = now()
	o.cl = cl
	ev0 := sim.TotalExecuted()
	out, err := c.drive(cl)
	o.events = sim.TotalExecuted() - ev0
	o.driven = now()
	o.perRank = out.perRank
	o.digest, o.err = check(cl, c, out, err, ref)
	o.checked = now()
	return o
}

// check verifies one cell: the driver call succeeded, the auditor is
// clean, data cells hold the exact sum, and the outputs' digest equals the
// recorded reference for the cell's inputs.
func check(cl *node.Cluster, c cell, out outcome, err error, ref map[string]string) (string, error) {
	if err != nil {
		return "", err
	}
	cl.Audit.Finish(cl.Eng.Now(), true)
	if !cl.Audit.Clean() {
		vs, dropped := cl.Audit.Violations()
		return "", fmt.Errorf("audit: %d violations (+%d dropped): %v", len(vs), dropped, vs[:min(len(vs), 1)])
	}
	if c.want != nil {
		if len(out.output) != c.nodes {
			return "", fmt.Errorf("got %d output vectors for %d ranks", len(out.output), c.nodes)
		}
		for r, vec := range out.output {
			if len(vec) != len(c.want) {
				return "", fmt.Errorf("rank %d: %d elements, want %d", r, len(vec), len(c.want))
			}
			for i, v := range vec {
				if v != c.want[i] {
					return "", fmt.Errorf("rank %d element %d: sum %v, want %v", r, i, v, c.want[i])
				}
			}
		}
	}
	d := digest(cl, out)
	want, ok := ref[c.key]
	switch {
	case !ok:
		return d, fmt.Errorf("%s: %w", c.key, errMissingReference)
	case d != want:
		return d, fmt.Errorf("digest %s, reference %s", d, want)
	}
	return d, nil
}

// writeTrace writes the traced passes' spans and CPU profiles.
func (r *results) writeTrace(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), spans, 0o644); err != nil {
		return err
	}
	for i, p := range r.profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%03d.pprof", i)), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}
