package main

import "time"

// The host's speed changes under the benchmark. On the 2-core VM it was
// recorded on, phases of tens of minutes ran the same cells at half their
// usual CPU rate, with little steal time reported, as when another tenant
// shares the physical cores. CPU time cannot tell that apart from a slower
// program, so an untraced run also times a fixed piece of work, the
// calibration, before its first cell and after each cell that brings the
// cell CPU since the last calibration to calibrateEvery. Each cell's times
// are scaled by referenceCalibrationMs over the mean of the calibrations
// just before and just after it, so the metrics are in CPU time of the
// reference host. The speed also wanders within a run: over ten
// ring-allreduce runs in such a phase, this left cells_per_s, cell_ms.p50
// and cell_ms.tail spreads of 0.037, 0.055 and 0.034, where one scale per
// run from the mean calibration left 0.038, 0.065 and 0.111, and unscaled
// CPU time 0.13, 0.29 and 0.22. The calibration is the two hot paths of the
// simulator whose cost tracked the cells' through those phases: goroutine
// handoff over channels and a binary event heap. (Lookups in a table larger
// than the caches slowed twice as much as the cells, so they are left
// out.) It allocates nothing, so it moves neither the collector nor the
// heap.

// referenceCalibrationMs sets the unit of the scaled times: calibrate's
// CPU time on the reference host (2-core VM, go1.24.0, one P) in its fast
// phase, inferred from the cells' CPU rate times the calibration, which
// stayed within a few percent through the phases.
const referenceCalibrationMs = 18.5

// calibrateEvery is the cell CPU time between calibrations.
const calibrateEvery = 250 * time.Millisecond

const (
	calHandoffs = 30000
	calEvents   = 150000
	calHeapSize = 4096
)

var (
	calEventHeap = make([]int64, 0, calHeapSize+1)
	calPing      = make(chan int64)
	calPong      = make(chan int64)
	calSink      int64
)

func init() {
	go func() {
		for v := range calPing {
			calPong <- v + 1
		}
	}()
}

// calibrate runs the fixed work and returns its CPU time in ms.
func calibrate() float64 {
	t0 := processCPU()
	var v int64
	for i := 0; i < calHandoffs; i++ {
		calPing <- v
		v = <-calPong
	}
	h := calEventHeap[:0]
	x := uint64(1)
	for i := 0; i < calEvents; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h = heapPush(h, int64(x>>24))
		if len(h) > calHeapSize {
			var at int64
			h, at = heapPop(h)
			v += at
		}
	}
	calSink += v
	return ms(processCPU() - t0)
}

// heapPush and heapPop keep h a binary min-heap.
func heapPush(h []int64, at int64) []int64 {
	h = append(h, at)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []int64) ([]int64, int64) {
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h[l] < h[m] {
			m = l
		}
		if l+1 < n && h[l+1] < h[m] {
			m = l + 1
		}
		if m == i {
			return h, top
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
