package bench

import "strings"

// Experiment names one gputn-bench experiment.
type Experiment struct {
	Name string
	Desc string
	// InAll reports whether -exp all runs it.
	InAll bool
}

// Experiments is every gputn-bench experiment in run order. The CLI derives
// -list, the -exp help, -exp all, -exp figures and its unknown-experiment
// error from it, and TestEveryExperimentAuditClean runs each entry.
var Experiments = []Experiment{
	{"table1", "qualitative comparison of GPU networking strategies (paper Table 1)", true},
	{"table2", "simulated system configuration: CPU, GPU, network and NIC (paper Table 2)", true},
	{"table3", "CNTK training workloads: domain, blocked time, reductions, message size (paper Table 3)", true},
	{"fig1", "kernel launch latency vs queued kernel commands (paper Fig. 1)", true},
	{"fig8", "2-node put latency decomposition per backend, plus GHN and GNN (paper Fig. 8)", true},
	{"fig9", "Jacobi per-iteration speedup vs HDN on a 2x2 grid (paper Fig. 9)", true},
	{"fig10", "8MB Allreduce strong-scaling speedup vs CPU (paper Fig. 10)", true},
	{"fig11", "projected CNTK training speedup vs HDN on 8 nodes (paper Fig. 11)", true},
	{"ablations", "mechanism ablations: relaxed sync, granularity, topology, pipelining, ...", true},
	{"faults", "Allreduce latency under packet loss with reliable delivery", true},
	{"resources", "NIC resource-pressure sweep (bounded trigger lists and queues)", true},
	{"crash", "crash-stop/restart recovery latency vs restart delay per backend", true},
	{"partitions", "partition heal-delay sweep and gray-link static-vs-adaptive RTO comparison", true},
	{"sdc", "silent-data-corruption sweep: detection latency, escape rate, e2e checksum overhead", true},
	{"stragglers", "fail-slow sweep: unmitigated vs hedged collectives per slowdown class and backend", true},
	{"sensitivity", "GPU-TN latency reduction vs HDN and GDS over kernel-overhead scale x bandwidth", true},
	{"mlscale", "Fig. 11 extensions: GPU-TN projection across cluster sizes, in-sim training loop vs projection", true},
	{"chaossearch", "shrinking chaos search: random correlated scenarios x backends under the invariant auditor", false},
	{"perf", "simulator self-benchmark: events/sec, allocs/event, wall time", false},
}

// ExperimentNames returns the registry's names in run order; with inAll
// set, only the experiments -exp all runs.
func ExperimentNames(inAll bool) []string {
	var out []string
	for _, e := range Experiments {
		if !inAll || e.InAll {
			out = append(out, e.Name)
		}
	}
	return out
}

// FigureNames returns the paper-figure experiments (-exp figures).
func FigureNames() []string {
	var out []string
	for _, e := range Experiments {
		if strings.HasPrefix(e.Name, "fig") {
			out = append(out, e.Name)
		}
	}
	return out
}
