package jacobi

import (
	"errors"
	"fmt"

	"repro/internal/backends"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
)

// haloMatchBits addresses every rank's halo landing region.
const haloMatchBits = 0x3AC

// stencilOpsPerElem: four adds and one multiply per point.
const stencilOpsPerElem = 5

// stencilBytesPerElem: streaming read of src + write of dst (fp32), with
// the neighbouring rows served from cache.
const stencilBytesPerElem = 8

// trigWindowIters is how many iterations of triggered puts the GPU-TN host
// keeps registered ahead, bounding active trigger entries to
// trigWindowIters × neighbours ≤ 16 even on 4-neighbour interior nodes.
const trigWindowIters = 2

// Params configures one Jacobi run.
type Params struct {
	Kind  backends.Kind
	N     int // local interior size (the paper sweeps 16..1024)
	PX    int // node grid width
	PY    int // node grid height
	Iters int
	// WithData enables the real data plane so results can be verified
	// against Decomp.Reference.
	WithData bool
	// Overlap enables the communication/computation overlap extension for
	// the GPU-TN backend: interior relax runs while halos are in flight.
	// (The paper's implementation "does not exploit overlap", §5.3.)
	Overlap bool
}

// Result reports one run.
type Result struct {
	Duration sim.Time
	PerRank  []sim.Time
	// Grids holds each rank's final grid when WithData was set. Interiors
	// are exact; halos reflect the last exchange applied.
	Grids []*Grid
}

// haloMsg is the wire payload of one halo edge.
type haloMsg struct {
	iter int
	dir  Dir
	vals []float32
}

type haloKey struct {
	iter int
	dir  Dir
}

// rankState is per-rank run state.
type rankState struct {
	nd     *node.Node
	dec    Decomp
	params Params
	nbrs   map[Dir]int // neighbour-side halo dir -> neighbour rank
	recvCT *portals.CT

	cur, next *Grid
	pending   map[haloKey][]float32
	iterDone  int
}

func tagFor(iter int, d Dir) uint64 { return uint64(iter)*uint64(numDirs) + uint64(d) + 1 }

// Run executes one Jacobi relaxation on a fresh cluster sized
// params.PX × params.PY and drives the simulation to completion. Like
// collective.Run, it closes the cluster before returning.
func Run(c *node.Cluster, params Params) (Result, error) {
	defer c.Close()
	dec := Decomp{N: params.N, PX: params.PX, PY: params.PY}
	if err := dec.Validate(); err != nil {
		return Result{}, err
	}
	if c.Size() != dec.Nodes() {
		return Result{}, fmt.Errorf("jacobi: cluster has %d nodes, decomposition needs %d", c.Size(), dec.Nodes())
	}
	if params.Iters <= 0 {
		return Result{}, fmt.Errorf("jacobi: iterations must be positive")
	}
	if params.Overlap && params.Kind != backends.GPUTN {
		return Result{}, fmt.Errorf("jacobi: overlap requires the GPU-TN backend")
	}
	if params.Overlap && params.N < 3 {
		return Result{}, fmt.Errorf("jacobi: overlap needs N >= 3")
	}

	states := make([]*rankState, dec.Nodes())
	for r := range states {
		st := &rankState{
			nd:     c.Nodes[r],
			dec:    dec,
			params: params,
			nbrs:   dec.Neighbors(r),
			recvCT: c.Nodes[r].Ptl.CTAlloc(),
		}
		if params.WithData {
			st.cur = dec.InitGrid(r)
			st.next = NewGrid(params.N)
			st.pending = map[haloKey][]float32{}
		}
		states[r] = st
	}
	for _, st := range states {
		st := st
		st.nd.Ptl.MEAppend(&portals.ME{
			MatchBits: haloMatchBits,
			Length:    int64(params.N) * 4,
			CT:        st.recvCT,
			OnDelivery: func(d nic.Delivery) {
				if st.pending == nil {
					return
				}
				msg := d.Data.(haloMsg)
				st.pending[haloKey{msg.iter, msg.dir}] = msg.vals
			},
		})
	}

	res := Result{PerRank: make([]sim.Time, dec.Nodes())}
	errs := make([]error, dec.Nodes())
	for r := range states {
		r := r
		st := states[r]
		c.GoRank(r, fmt.Sprintf("jacobi.%s.%d", params.Kind, r), func(p *sim.Proc) {
			switch params.Kind {
			case backends.CPU:
				st.runCPU(p)
			case backends.HDN:
				st.runHDN(p)
			case backends.GDS:
				st.runGDS(p)
			case backends.GPUTN:
				if params.Overlap {
					st.runGPUTNOverlap(p)
				} else if err := st.runGPUTN(p); err != nil {
					errs[r] = err
					return
				}
			default:
				panic(fmt.Sprintf("jacobi: unknown backend %v", params.Kind))
			}
			res.PerRank[r] = p.Now()
		})
	}
	c.Run()
	if err := errors.Join(errs...); err != nil {
		// An aborted rank strands its halo partners; attach the hang
		// diagnosis so the error names the starved trigger entries.
		if diag := c.Diagnose(); diag != nil {
			return Result{}, errors.Join(err, diag)
		}
		return Result{}, err
	}
	for r, t := range res.PerRank {
		if t == 0 {
			if diag := c.Diagnose(); diag != nil {
				return Result{}, fmt.Errorf("jacobi: rank %d never completed: %w", r, diag)
			}
			return Result{}, fmt.Errorf("jacobi: rank %d never completed", r)
		}
		if t > res.Duration {
			res.Duration = t
		}
	}
	if params.WithData {
		for _, st := range states {
			res.Grids = append(res.Grids, st.cur)
		}
	}
	return res, nil
}

// --- data plane (identical across backends; timing differs) ---

// sendPayload captures the edge this rank sends toward the neighbour whose
// halo side is d, deferred to NIC DMA time. The grid version read is the
// pre-relaxation grid of the iteration, because every backend's control
// flow fires the send before that iteration's dataStep swaps buffers.
func (st *rankState) sendPayload(iter int, d Dir) any {
	if st.cur == nil {
		return nil
	}
	return nic.Deferred(func() any {
		return haloMsg{iter: iter, dir: d, vals: st.cur.SendEdge(d.Opposite())}
	})
}

// dataStep applies iteration iter: install the received halos, relax, and
// swap buffers. It runs exactly once per iteration, invoked by the
// backend's compute phase. It costs no simulated time — the timing is
// modeled separately.
func (st *rankState) dataStep(iter int) {
	if st.cur == nil {
		return
	}
	if iter != st.iterDone {
		panic(fmt.Sprintf("jacobi: dataStep(%d) out of order, expected %d", iter, st.iterDone))
	}
	for d := range st.myHaloDirs() {
		k := haloKey{iter, d}
		vals, ok := st.pending[k]
		if !ok {
			panic(fmt.Sprintf("jacobi: rank %d iter %d missing %v halo", st.nd.Index, iter, d))
		}
		st.cur.SetHalo(d, vals)
		delete(st.pending, k)
	}
	Relax(st.next, st.cur)
	st.cur, st.next = st.next, st.cur
	st.iterDone++
}

// myHaloDirs returns the set of this rank's own halo sides that have a
// neighbour (the mirror of st.nbrs, which is keyed by the *remote* side).
func (st *rankState) myHaloDirs() map[Dir]bool {
	out := map[Dir]bool{}
	for d := range st.nbrs {
		out[d.Opposite()] = true
	}
	return out
}

// --- timing models ---

func (st *rankState) elems() int64 { return int64(st.params.N) * int64(st.params.N) }

func (st *rankState) workingSet() int64 { return 2 * st.elems() * 4 } // two fp32 grids

// cpuStencilVecEff discounts the CPU's SIMD throughput for the stencil:
// the 5-point pattern's unaligned row accesses and column reuse keep the
// vector units well below peak, unlike a straight streaming loop.
const cpuStencilVecEff = 4

func (st *rankState) cpuStencilTime() sim.Time {
	e := st.elems()
	return st.nd.CPU.ComputeTime(cpuStencilVecEff*stencilOpsPerElem*e, stencilBytesPerElem*e, st.workingSet())
}

// stencilWGs picks the dispatch width: enough groups to cover the grid
// without exceeding full occupancy.
func (st *rankState) stencilWGs() int {
	g := int(st.elems() / 1024)
	if g < 1 {
		g = 1
	}
	cfg := st.nd.GPU.Config()
	if max := cfg.ComputeUnits * cfg.MaxWGPerCU; g > max {
		g = max
	}
	return g
}

func (st *rankState) gpuStencilPerWGTime(wgs int) sim.Time {
	e := st.elems() / int64(wgs)
	if e < 1 {
		e = 1
	}
	g := st.nd.GPU
	t := g.ComputeTime(stencilOpsPerElem*e, 0)
	if m := g.MemoryTime(stencilBytesPerElem*e, st.workingSet()); m > t {
		t = m
	}
	return t
}

func (st *rankState) haloBytes() int64 { return int64(st.params.N) * 4 }

// --- backend drivers ---
// Protocol per iteration (matches Decomp.Reference): exchange the current
// grid's edges, wait for all neighbour halos, then relax.

func (st *rankState) runCPU(p *sim.Proc) {
	md := st.nd.Ptl.MDBind("halo", st.haloBytes(), nil, nil)
	n := int64(len(st.nbrs))
	dirs := orderedDirList(st.nbrs)
	for k := 0; k < st.params.Iters; k++ {
		for _, d := range dirs {
			md.Data = st.sendPayload(k, d)
			backends.HostSend(p, st.nd, md, st.haloBytes(), st.nbrs[d], haloMatchBits)
		}
		backends.HostRecvWait(p, st.nd, st.recvCT, int64(k+1)*n)
		st.dataStep(k)
		p.Sleep(st.cpuStencilTime())
	}
}

func (st *rankState) runHDN(p *sim.Proc) {
	md := st.nd.Ptl.MDBind("halo", st.haloBytes(), nil, nil)
	n := int64(len(st.nbrs))
	dirs := orderedDirList(st.nbrs)
	wgs := st.stencilWGs()
	perWG := st.gpuStencilPerWGTime(wgs)
	for k := 0; k < st.params.Iters; k++ {
		for _, d := range dirs {
			md.Data = st.sendPayload(k, d)
			backends.HostSend(p, st.nd, md, st.haloBytes(), st.nbrs[d], haloMatchBits)
		}
		backends.HostRecvWait(p, st.nd, st.recvCT, int64(k+1)*n)
		kk := k
		st.nd.GPU.LaunchSync(p, &gpu.Kernel{
			Name:       fmt.Sprintf("hdn.stencil.%d", k),
			WorkGroups: wgs,
			Body: func(wg *gpu.WGCtx) {
				if wg.Group == 0 {
					st.dataStep(kk)
				}
				wg.Compute(perWG)
			},
		})
	}
}

func (st *rankState) runGDS(p *sim.Proc) {
	stream := st.nd.GPU.NewStream(fmt.Sprintf("gds.jacobi.%d", st.nd.Index))
	n := int64(len(st.nbrs))
	dirs := orderedDirList(st.nbrs)
	wgs := st.stencilWGs()
	perWG := st.gpuStencilPerWGTime(wgs)
	for k := 0; k < st.params.Iters; k++ {
		for _, d := range dirs {
			md := st.nd.Ptl.MDBind(fmt.Sprintf("halo.%d.%v", k, d), st.haloBytes(), st.sendPayload(k, d), nil)
			ring := backends.PrePost(p, st.nd, md, st.haloBytes(), st.nbrs[d], haloMatchBits)
			stream.EnqueueDoorbell(ring)
		}
		stream.EnqueueWait(st.recvCT.Raw(), int64(k+1)*n)
		kk := k
		stream.EnqueueKernel(&gpu.Kernel{
			Name:       fmt.Sprintf("gds.stencil.%d", k),
			WorkGroups: wgs,
			Body: func(wg *gpu.WGCtx) {
				if wg.Group == 0 {
					st.dataStep(kk)
				}
				wg.Compute(perWG)
			},
		})
	}
	stream.Sync(p)
}

func (st *rankState) runGPUTN(p *sim.Proc) error {
	host := core.NewHost(st.nd.Eng, st.nd.Ptl, st.nd.GPU)
	comp := host.NewCompletion()
	trig := host.GetTriggerAddr()
	n := int64(len(st.nbrs))
	wgs := st.stencilWGs()
	perWG := st.gpuStencilPerWGTime(wgs)
	iters := st.params.Iters
	dirs := orderedDirList(st.nbrs)

	kern := &gpu.Kernel{
		Name:       fmt.Sprintf("gputn.jacobi.%d", st.nd.Index),
		WorkGroups: wgs,
		Body: func(wg *gpu.WGCtx) {
			for k := 0; k < iters; k++ {
				for _, d := range dirs {
					core.TriggerKernel(wg, trig, tagFor(k, d))
				}
				wg.PollUntil(st.recvCT.Raw(), int64(k+1)*n)
				if wg.Group == 0 {
					st.dataStep(k)
				}
				wg.Compute(perWG)
			}
		},
	}
	host.LaunchKern(kern)

	register := func(k int) error {
		for _, d := range dirs {
			md := st.nd.Ptl.MDBind(fmt.Sprintf("tn.halo.%d.%v", k, d), st.haloBytes(), st.sendPayload(k, d), comp.CT)
			// Pressure-aware registration: a full trigger list stalls the
			// host until an in-flight halo put fires and frees a slot.
			if err := host.TrigPutPressure(p, comp, tagFor(k, d), int64(wgs), md, st.haloBytes(), st.nbrs[d], haloMatchBits); err != nil {
				return fmt.Errorf("jacobi: rank %d iter %d dir %v: %w", st.nd.Index, k, d, err)
			}
		}
		return nil
	}
	window := trigWindowIters
	if window > iters {
		window = iters
	}
	for k := 0; k < window; k++ {
		if err := register(k); err != nil {
			return err
		}
	}
	for k := window; k < iters; k++ {
		comp.WaitHost(p, int64(k-window+1)*n)
		if err := register(k); err != nil {
			return err
		}
	}
	kern.Wait(p)
	return nil
}

func orderedDirList(nbrs map[Dir]int) []Dir {
	var out []Dir
	for d := Dir(0); d < numDirs; d++ {
		if _, ok := nbrs[d]; ok {
			out = append(out, d)
		}
	}
	return out
}
