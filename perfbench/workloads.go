package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
)

// A cell is one simulation: a fresh cluster, one driver call run to
// completion, and the check of its outputs.
type cell struct {
	// key names the cell's inputs; the reference is keyed by it.
	key string
	// class groups cells that do the same work on different inputs, for
	// the per-class medians.
	class string
	cfg   config.SystemConfig
	nodes int
	// drive makes the calls into collective or portals and runs the
	// cluster to completion.
	drive func(cl *node.Cluster) (outcome, error)
	// payload is the bytes the workload asks the fabric to move.
	payload int64
	// want is the exact elementwise sum every rank must hold (data cells).
	want []float32
}

// outcome is what a driver call returns.
type outcome struct {
	perRank []sim.Time // each rank's completion time
	output  [][]float32
}

// A workload yields its cells one pass at a time. Every pass has the same
// mix of cell classes.
type workload struct {
	name string
	// passSeconds is the CPU time one pass took on the reference host
	// (2-core VM, go1.24.0, one P) when the benchmark was recorded. A run
	// does the number of passes that took --seconds there, so its work is
	// the same on every commit and host: a faster program finishes sooner
	// instead of running more cells, which would also leak more clusters
	// and raise its peak_rss_mb.
	passSeconds float64
	// pass returns the next pass's cells; rng is seeded from --seed.
	pass func(rng *rand.Rand) []cell
	// allCells lists every cell the workload can produce (for -record).
	allCells func() []cell
}

var workloads = []workload{ringAllreduce(), fattreeIncast(), allreduceLossy()}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func kindName(k backends.Kind) string { return strings.ToLower(k.String()) }

// allreduceCell runs one ring Allreduce through collective.Run.
func allreduceCell(key, class string, cfg config.SystemConfig, n int, k backends.Kind, bytes int64, data [][]float32, want []float32) cell {
	return cell{
		key: key, class: class, cfg: cfg, nodes: n, payload: 2 * int64(n-1) * bytes, want: want,
		drive: func(cl *node.Cluster) (outcome, error) {
			res, err := collective.Run(cl, collective.Config{Kind: k, TotalBytes: bytes, Data: data})
			return outcome{perRank: res.PerRank, output: res.Output}, err
		},
	}
}

// ringAllreduce is the Figure 10 path: an 8 MB size-only ring Allreduce on
// the default star fabric, every backend at 16 and 32 nodes. Its host cost
// is proc handoff, the event heap and GPU work-group procs; both sizes are
// kept so per-event cost that grows with node count shows. The inputs are
// fixed and the seed has no effect: cells run in the same order in every
// run, since their order moves the run's garbage-collection pacing.
func ringAllreduce() workload {
	all := func() []cell {
		var cells []cell
		for _, n := range []int{16, 32} {
			for _, k := range backends.All() {
				class := fmt.Sprintf("%s/n%d", kindName(k), n)
				cells = append(cells, allreduceCell("ring-allreduce/"+class, class, config.Default(), n, k, 8<<20, nil, nil))
			}
		}
		return cells
	}
	return workload{
		name:        "ring-allreduce",
		passSeconds: 1.55,
		pass:        func(*rand.Rand) []cell { return all() },
		allCells:    all,
	}
}

const (
	incastNodes     = 64
	incastBytes     = 1 << 20
	incastMatchBits = 0x1
)

// fattreeIncast is a 63->1 incast of 1 MB puts on the 64-node fat-tree
// with per-hop credits, ECN and the adaptive RTO. The fabric's per-hop
// stages dominate and procs and the GPU are nearly idle, so this is the
// workload that bypasses proc switching and exercises the fabric and the
// NIC's reliability path. The seed picks each cell's sink.
func fattreeIncast() workload {
	cfg := config.Default()
	cfg.Network.Topology = config.TopologyFatTree
	cfg.Network.FatTree.QueueCredits = 8
	cfg.Network.FatTree.ECNThreshold = 4
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.NIC.Reliability.AdaptiveRTO = true
	mk := func(sink int) cell {
		return cell{
			key: fmt.Sprintf("fattree-incast/sink%d", sink), class: "incast", cfg: cfg, nodes: incastNodes,
			payload: (incastNodes - 1) * incastBytes,
			drive: func(cl *node.Cluster) (outcome, error) {
				dst := cl.Nodes[sink].Ptl
				recvCT := dst.CTAlloc()
				dst.MEAppend(&portals.ME{MatchBits: incastMatchBits, Length: incastBytes, CT: recvCT})
				for i, nd := range cl.Nodes {
					if i != sink {
						nd.Ptl.PutAsync(nd.Ptl.MDBind("src", incastBytes, nil, nil), incastBytes, sink, incastMatchBits)
					}
				}
				var done sim.Time
				cl.GoRank(sink, "sink", func(p *sim.Proc) {
					recvCT.Wait(p, incastNodes-1)
					done = p.Now()
				})
				cl.Run()
				if done == 0 {
					return outcome{}, fmt.Errorf("sink %d received %d of %d puts", sink, recvCT.Value(), incastNodes-1)
				}
				return outcome{perRank: []sim.Time{done}}, nil
			},
		}
	}
	return workload{
		name:        "fattree-incast",
		passSeconds: 0.25,
		pass:        func(rng *rand.Rand) []cell { return []cell{mk(rng.Intn(incastNodes))} },
		allCells: func() []cell {
			cells := make([]cell, incastNodes)
			for s := range cells {
				cells[s] = mk(s)
			}
			return cells
		},
	}
}

const (
	lossyNodes = 16
	lossyBytes = 256 << 10
	lossyDrop  = 0.02
	// lossyInputs is the pool of input seeds a run draws from. Every one
	// has a recorded reference, so every cell of every run is checked
	// against it whatever --seed is.
	lossyInputs = 64
)

// allreduceLossy is a 256 KB ring Allreduce with real data vectors on 16
// nodes, every backend, under a seeded 2% packet drop with the reliable
// NIC. It exercises collective and nic differently from ring-allreduce:
// small chunks, NACK retransmits and the reduce arithmetic; it is the only
// workload that arms the fault injector. The seed draws each pass's input
// seed, which drives both the injector and the input vectors.
func allreduceLossy() workload {
	mkPass := func(in int64) []cell {
		cfg := config.Default()
		cfg.Faults = config.FaultConfig{Seed: in, DropProb: lossyDrop}
		cfg.NIC.Reliability = config.DefaultReliability()
		data, want := lossyInputVectors(in)
		var cells []cell
		for _, k := range backends.All() {
			key := fmt.Sprintf("allreduce-lossy/%s/in%d", kindName(k), in)
			cells = append(cells, allreduceCell(key, kindName(k), cfg, lossyNodes, k, lossyBytes, data, want))
		}
		return cells
	}
	return workload{
		name:        "allreduce-lossy",
		passSeconds: 0.24,
		pass:        func(rng *rand.Rand) []cell { return mkPass(1 + rng.Int63n(lossyInputs)) },
		allCells: func() []cell {
			var cells []cell
			for in := int64(1); in <= lossyInputs; in++ {
				cells = append(cells, mkPass(in)...)
			}
			return cells
		},
	}
}

// lossyInputVectors makes one vector per rank of small integers, so every
// fp32 sum is exact in any order, and their elementwise sum.
func lossyInputVectors(seed int64) (data [][]float32, want []float32) {
	rng := rand.New(rand.NewSource(seed))
	nelems := lossyBytes / 4
	data = make([][]float32, lossyNodes)
	want = make([]float32, nelems)
	for r := range data {
		data[r] = make([]float32, nelems)
		for i := range data[r] {
			data[r][i] = float32(rng.Intn(64))
			want[i] += data[r][i]
		}
	}
	return data, want
}

// digest fingerprints a cell's simulated outputs: per-rank completion
// times, per-node fabric accounting, the NIC's delivery and reliability
// counters and the injected faults. Engine event counts are left out, so a
// simulator-only change that removes events keeps every digest.
func digest(cl *node.Cluster, out outcome) string {
	h := sha256.New()
	put := func(vs ...int64) {
		for _, v := range vs {
			fmt.Fprintf(h, "%d ", v)
		}
		fmt.Fprintln(h)
	}
	for _, t := range out.perRank {
		put(int64(t))
	}
	for i, nd := range cl.Nodes {
		id := network.NodeID(i)
		s := nd.NIC.Stats()
		put(cl.Fabric.MessagesDelivered(id), cl.Fabric.BytesDelivered(id), cl.Fabric.BytesSent(id),
			s.CommandsExecuted, s.TriggerWrites, s.TriggerFires, s.DeliveredMessages,
			s.Retransmits, s.AcksSent, s.NacksSent, s.DupesDropped,
			s.ECNMarksSeen, s.ECNEchoed, s.ECNBackoffs, s.RTTSamples)
	}
	f := cl.Injector.Stats()
	put(cl.Fabric.PacketsDropped(), f.PacketsDropped, f.PacketsCorrupted, f.PacketsDelayed)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
