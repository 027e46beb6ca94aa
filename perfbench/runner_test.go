package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/node"
)

func embeddedReference(t *testing.T) map[string]string {
	t.Helper()
	var ref map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

// onePass wraps fixed cells as a workload; a run of it with a tiny time
// budget is exactly one pass.
func onePass(cells []cell) workload {
	return workload{name: "test", pass: func(*rand.Rand) []cell { return cells }}
}

func TestWrongReferenceOrSumFailsCellAndRunFinishes(t *testing.T) {
	lossy, _ := findWorkload("allreduce-lossy")
	cells := lossy.pass(rand.New(rand.NewSource(1)))
	ref := embeddedReference(t)

	badRef := map[string]string{}
	for k, v := range ref {
		badRef[k] = v
	}
	badRef[cells[0].key] = "0000000000000000"

	wrongSum := cells[1]
	wrongSum.want = append([]float32(nil), wrongSum.want...)
	wrongSum.want[7]++

	panics := cells[2]
	panics.drive = func(*node.Cluster) (outcome, error) { panic("driver bug") }

	run := []cell{cells[0], wrongSum, panics, cells[3]}
	r := measure(onePass(run), 1, 1e-9, false, badRef)
	rep := r.report(false)
	if rep.Attempted != 4 || rep.Failed != 3 || rep.Correct {
		t.Fatalf("attempted=%d failed=%d correct=%v, want 4, 3, false", rep.Attempted, rep.Failed, rep.Correct)
	}
	if len(r.cellMs) != 4 {
		t.Fatalf("timed %d cells, want 4", len(r.cellMs))
	}

	// The same cells with the recorded reference and true sums all pass.
	r = measure(onePass(cells), 1, 1e-9, false, ref)
	if r.failed != 0 || r.cells != 4 {
		t.Fatalf("untampered pass: %d of %d cells failed", r.failed, r.cells)
	}
}

func TestHeldOutSeedPassesEveryCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one pass of every workload")
	}
	// 424242 was not used while the benchmark was built or recorded.
	ref := embeddedReference(t)
	for _, w := range workloads {
		r := measure(w, 424242, 1e-9, false, ref)
		if r.cells == 0 || r.failed != 0 {
			t.Errorf("%s: %d of %d cells failed", w.name, r.failed, r.cells)
		}
		if v := r.counters.violations; v != 0 {
			t.Errorf("%s: %v audit violations", w.name, v)
		}
	}
}

func TestReferenceCoversEveryCell(t *testing.T) {
	ref := embeddedReference(t)
	n := 0
	for _, w := range workloads {
		for _, c := range w.allCells() {
			if _, ok := ref[c.key]; !ok {
				t.Errorf("no reference for %s", c.key)
			}
			n++
		}
	}
	if n != len(ref) {
		t.Errorf("reference has %d entries for %d cells", len(ref), n)
	}
}

func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1] // "goroutine <id> [running]:"
}

func TestCellsRunOffTheCallersGoroutine(t *testing.T) {
	// A caller locked to its OS thread, as main is during package init,
	// must not be the goroutine that drives the event loop.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	caller := goroutineID()
	var driver string
	c := cell{key: "test/hygiene", cfg: ringAllreduce().allCells()[0].cfg, nodes: 2,
		drive: func(cl *node.Cluster) (outcome, error) {
			driver = goroutineID()
			cl.Run()
			return outcome{}, nil
		}}
	measure(onePass([]cell{c}), 1, 1e-9, false, nil)
	if driver == "" || driver == caller {
		t.Fatalf("cell ran on goroutine %q, caller is %q", driver, caller)
	}
}

func TestReportsEveryDeclaredMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	lossy, _ := findWorkload("allreduce-lossy")
	for _, traced := range []bool{false, true} {
		want := decl.EndToEnd
		if traced {
			want = decl.PerLayer
		}
		got := measure(lossy, 1, 1e-9, traced, embeddedReference(t)).report(traced).Metrics
		if len(got) != len(want) {
			t.Errorf("traced=%v: %d metrics, %d declared", traced, len(got), len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit || math.IsNaN(g.Value) {
				t.Errorf("traced=%v: %s = %+v, declared unit %s", traced, m.Name, g, m.Unit)
			}
		}
	}
}

func TestClassMedianAndTail(t *testing.T) {
	// Two equal classes: the mean of their medians, not of their extremes.
	xs := []float64{10, 11, 50, 100, 101, 300}
	cls := []string{"a", "a", "a", "b", "b", "b"}
	if got := classMedian(xs, cls); got != (11+101)/2.0 {
		t.Errorf("classMedian = %v, want %v", got, (11+101)/2.0)
	}
	// A majority class holds the middle cell.
	if got := classMedian([]float64{1, 2, 3, 9}, []string{"a", "a", "a", "b"}); got != 2 {
		t.Errorf("classMedian = %v, want 2", got)
	}
	ys := make([]float64, 40)
	for i := range ys {
		ys[i] = float64(i)
	}
	if v, pct := tailPercentile(ys); v != 29 || pct != 75 {
		t.Errorf("tailPercentile = %v at p%v, want 29 at p75", v, pct)
	}
}

func TestCollectionsAreChargedByBytesAllocated(t *testing.T) {
	r := &results{cellMs: []float64{1, 1, 1}}
	c := newCollector()
	defer c.stop()
	c.pending, c.pendingB = []int{0, 2}, []uint64{1, 3}
	c.collect(r)
	first, skipped, last := r.cellMs[0]-1, r.cellMs[1]-1, r.cellMs[2]-1
	if first <= 0 || skipped != 0 || math.Abs(last/first-3) > 1e-9 {
		t.Fatalf("charges %v, %v, %v: want a positive cost split 1:0:3", first, skipped, last)
	}
	if len(c.pending) != 0 {
		t.Fatalf("%d cells still pending after a collection", len(c.pending))
	}
}

func TestCalibrationAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { calibrate() }); n != 0 {
		t.Fatalf("calibrate allocates %v objects per run", n)
	}
}
