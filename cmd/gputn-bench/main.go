// Command gputn-bench regenerates the paper's tables and figures, and the
// robustness and extension studies built around them. It is the project's
// only binary.
//
// Usage:
//
//	gputn-bench -list
//	gputn-bench -exp all
//	gputn-bench -exp figures -parallel 8 -csv out
//	gputn-bench -exp fig8 -trace-out /tmp
//	gputn-bench -exp perf -perf-preset smoke -bench-out BENCH_sim.json
//	gputn-bench -exp fig10 -reliable -scenario-domains 'pair=0,1' \
//	    -scenario-events 'gray:pair@10us,heal=2ms,lat=3,loss=0.01'
//
// -list describes every experiment; "figures" runs the paper figures and
// "all" every experiment except chaossearch and perf. -csv DIR also writes
// the figure and sensitivity series as CSV; -trace-out DIR writes fig8's
// HDN, GDS and GPU-TN span timelines as Chrome trace-event JSON. -parallel
// sets how many OS threads the sweep runner fans replicas across; results
// are collected in submission order, so output is byte-identical for any
// value. -exp perf measures the simulator itself and -bench-baseline gates
// it against a committed report; -cpuprofile/-memprofile profile any run.
//
// Each flag group arms its mechanism for every experiment in the run, and
// all of them at zero (the default) keep results bit-for-bit unchanged:
//
//   - -fault-*: the per-packet fault injector (drop, corrupt, link flap);
//     -reliable the NIC retransmit layer, -adaptive-rto its per-peer
//     Jacobson/Karels timer.
//   - -sdc-*: silent data corruption (wire flips, buffer corruption at rest,
//     a faulty reducer); -e2e the end-to-end checksum that detects it.
//   - -health-*: heartbeat membership timing; -hedge adds fail-slow
//     detection.
//   - -cap-*: NIC resource bounds; -topo*: the interconnect shape.
//   - -scenario-*: the one timeline of timed faults. -scenario-domains
//     names node groups ("rack0=0,1,2,3;n1=1") and -scenario-events
//     schedules crash, cut, gray, slow and rackfail events over them, plus
//     switchfail and podfail on a fat-tree ("crash:n1@70us,heal=60us",
//     "cut:n2@5us,asym", "gray:n2@1us,heal=4999us,lat=10,loss=0.05,asym",
//     "slow:n1@1us,heal=799us,gpu=10", "switchfail:spine0@10us"). A
//     scenario that crashes nodes also arms the health suite.
//
// The crash, partitions, sdc and stragglers sweeps set their own fault
// schedule per cell; a scenario is added on top of it, not instead of it.
// -exp chaossearch samples -chaos-trials random scenarios from -chaos-seed,
// runs each on all four backends under the invariant auditor and shrinks
// any violation to a replayable -scenario-* flag set (-chaos-replay runs
// one); -chaos-inject arms a seeded protocol bug the search must catch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/backends"
	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
)

// options is one parsed command line: the system configuration every
// experiment runs on, plus the flags that steer the harness itself.
type options struct {
	cfg         config.SystemConfig
	exp         string
	list        bool
	csvDir      string
	traceOut    string
	parallel    int
	reliable    bool
	capTrigFIFO int

	perfPreset, benchOut, benchBaseline string
	benchTolerance                      float64
	cpuprofile, memprofile              string

	chaosSeed   int64
	chaosTrials int
	chaosInject string
	chaosReplay bool
}

// parseArgs parses the command line (without the program name) and builds
// the configuration it describes. Every error is also reported to errOut.
func parseArgs(args []string, errOut io.Writer) (*options, error) {
	fail := func(err error) (*options, error) {
		fmt.Fprintln(errOut, "gputn-bench:", err)
		return nil, err
	}
	fs := flag.NewFlagSet("gputn-bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := &options{}
	fs.StringVar(&o.exp, "exp", "all", "experiment to run: "+strings.Join(bench.ExperimentNames(false), "|")+"|figures|all")
	fs.BoolVar(&o.list, "list", false, "list all experiments with one-line descriptions and exit")
	fs.StringVar(&o.csvDir, "csv", "", "also write figure data as CSV into this directory")
	fs.StringVar(&o.traceOut, "trace-out", "", "write fig8's HDN/GDS/GPU-TN span timelines as Chrome traces into this directory")
	fs.IntVar(&o.parallel, "parallel", runtime.NumCPU(), "worker threads for sweep replicas (1 = serial)")

	fs.StringVar(&o.perfPreset, "perf-preset", "full", "perf harness preset: full|smoke")
	fs.StringVar(&o.benchOut, "bench-out", "BENCH_sim.json", "write the perf report JSON here (empty = don't write)")
	fs.StringVar(&o.benchBaseline, "bench-baseline", "", "compare the perf report against this baseline JSON")
	fs.Float64Var(&o.benchTolerance, "bench-tolerance", 0.30, "allowed fractional events/sec regression vs baseline")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile here")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile here at exit")

	faultSeed := fs.Int64("fault-seed", 42, "fault injector RNG seed")
	faultDrop := fs.Float64("fault-drop", 0, "per-packet drop probability [0,1]")
	faultCorrupt := fs.Float64("fault-corrupt", 0, "per-packet corruption probability [0,1]")
	flapNode := fs.Int("fault-flap-node", 0, "node whose links flap during the flap window")
	flapStartUS := fs.Float64("fault-flap-start-us", 0, "flap window start (us)")
	flapEndUS := fs.Float64("fault-flap-end-us", 0, "flap window end (us); 0 disables flapping")
	fs.BoolVar(&o.reliable, "reliable", false, "enable the NIC reliable-delivery layer (seq/ack/retransmit)")
	adaptiveRTO := fs.Bool("adaptive-rto", false, "use the per-peer Jacobson/Karels adaptive retransmit timer (implies -reliable behavior only when -reliable is set)")

	healthPeriodUS := fs.Float64("health-period-us", 0, "heartbeat GPU-tick period (us); 0 = default")
	healthSuspectUS := fs.Float64("health-suspect-us", 0, "silence before a node is suspected dead (us); 0 = default")
	healthStabilizeUS := fs.Float64("health-stabilize-us", 0, "view-stability window before reintegration (us); 0 = default")
	hedge := fs.Bool("hedge", false, "arm progress-based fail-slow detection in the health suite (implies health)")

	sdcSeed := fs.Int64("sdc-seed", 42, "SDC plan private RNG seed")
	sdcWire := fs.Float64("sdc-wire", 0, "per-packet silent wire-corruption probability [0,1] (link CRC stays green)")
	sdcBuffer := fs.Float64("sdc-buffer", 0, "per-send buffer-corruption-at-rest probability [0,1] on -sdc-buffer-node")
	sdcBufferNode := fs.Int("sdc-buffer-node", 0, "node whose send buffers corrupt at rest")
	sdcRank := fs.Int("sdc-rank", 0, "rank whose reduction combines are wrong during the faulty window")
	sdcFromUS := fs.Float64("sdc-from-us", 0, "faulty-reducer window start (us)")
	sdcUntilUS := fs.Float64("sdc-until-us", 0, "faulty-reducer window end (us); 0 disables the window")
	e2e := fs.Bool("e2e", false, "arm the end-to-end payload checksum (CRC32C, verified at the destination)")
	e2eLatencyNS := fs.Float64("e2e-latency-ns", 0, "modeled per-message checksum compute/verify cost (ns)")

	scenarioSeed := fs.Int64("scenario-seed", 42, "composed-scenario private jitter RNG seed")
	scenarioDomains := fs.String("scenario-domains", "", `named failure domains, e.g. "rack0=0,1,2,3;n1=1"`)
	scenarioEvents := fs.String("scenario-events", "", `timed fault events over the domains (crash|cut|gray|slow|rackfail|switchfail|podfail), e.g. "crash:n1@70us,heal=60us;switchfail:spine0@10us"; empty disables the composer`)
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 42, "chaos-search scenario-sampling seed")
	fs.IntVar(&o.chaosTrials, "chaos-trials", 6, "chaos-search scenarios sampled per run")
	fs.StringVar(&o.chaosInject, "chaos-inject", "", "arm a seeded protocol bug for chaossearch: doublefire|staledeliver")
	fs.BoolVar(&o.chaosReplay, "chaos-replay", false, "replay the -scenario-* flags on every backend and report audit verdicts instead of searching")

	capTrig := fs.Int("cap-trigger-entries", 0, "trigger-list capacity (0 = paper default of 16)")
	capPlaceholders := fs.Int("cap-placeholders", 0, "relaxed-sync placeholder budget (0 = shared with trigger list)")
	capCmdQ := fs.Int("cap-cmdq", 0, "host command-queue depth; full queues backpressure posters (0 = unbounded)")
	fs.IntVar(&o.capTrigFIFO, "cap-trigger-fifo", 0, "trigger FIFO depth; overflow drops and counts (0 = unbounded)")
	capEQ := fs.Int("cap-eq", 0, "default event-queue capacity; overflow drops PTL_EQ_DROPPED-style (0 = unbounded)")

	topo := fs.String("topo", "", "interconnect topology: star|tree|fattree (empty = the Table 2 star)")
	topoLeaf := fs.Int("topo-leaf", 0, "nodes per leaf switch for -topo tree/fattree (0 = default)")
	topoPodLeaves := fs.Int("topo-podleaves", 0, "fat-tree leaf switches per pod (0 = 2)")
	topoSpines := fs.Int("topo-spines", 0, "fat-tree spine switches per pod (0 = 2)")
	topoCores := fs.Int("topo-cores", 0, "fat-tree core switches (0 = spines)")
	topoCredits := fs.Int("topo-credits", 0, "fat-tree per-port queue credits; senders backpressure when exhausted (0 = unbounded)")
	topoECN := fs.Int("topo-ecn", 0, "fat-tree ECN marking threshold in queued frames (0 = never mark)")
	if err := fs.Parse(args); err != nil {
		return nil, err // the flag set has printed it, with the usage
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}

	us := func(v float64) sim.Time { return sim.Time(v * float64(sim.Microsecond)) }
	cfg := config.Default()
	cfg.Faults = config.FaultConfig{
		Seed:        *faultSeed,
		DropProb:    *faultDrop,
		CorruptProb: *faultCorrupt,
		FlapNode:    *flapNode,
		FlapStart:   us(*flapStartUS),
		FlapEnd:     us(*flapEndUS),
	}
	if *sdcWire > 0 || *sdcBuffer > 0 || *sdcUntilUS > 0 {
		cfg.Faults.SDC = config.SDCConfig{
			Seed:        *sdcSeed,
			WireProb:    *sdcWire,
			BufferProb:  *sdcBuffer,
			BufferNode:  *sdcBufferNode,
			FaultyRank:  *sdcRank,
			FaultyFrom:  us(*sdcFromUS),
			FaultyUntil: us(*sdcUntilUS),
		}
	}
	if *e2e {
		cfg.NIC.E2EChecksum = true
		cfg.NIC.E2EChecksumLatency = sim.Time(*e2eLatencyNS * float64(sim.Nanosecond))
	}
	if o.reliable {
		cfg.NIC.Reliability = config.DefaultReliability()
		cfg.NIC.Reliability.AdaptiveRTO = *adaptiveRTO
	}
	if *scenarioEvents != "" {
		doms, err := config.ParseScenarioDomains(*scenarioDomains)
		if err != nil {
			return fail(fmt.Errorf("-scenario-domains: %w", err))
		}
		evs, err := config.ParseScenarioEvents(*scenarioEvents)
		if err != nil {
			return fail(fmt.Errorf("-scenario-events: %w", err))
		}
		cfg.Scenario = config.ScenarioConfig{Seed: *scenarioSeed, Domains: doms, Events: evs}
		for _, ev := range evs {
			if (ev.Kind == config.ScenarioSwitchFail || ev.Kind == config.ScenarioPodFail) && *topo != config.TopologyFatTree {
				return fail(fmt.Errorf("-scenario-events: %s needs -topo %s", ev.Kind, config.TopologyFatTree))
			}
		}
	}
	if cfg.Scenario.Crashes() || *hedge || *healthPeriodUS > 0 || *healthSuspectUS > 0 || *healthStabilizeUS > 0 {
		cfg.Health = config.DefaultHealth()
		if *healthPeriodUS > 0 {
			cfg.Health.Period = us(*healthPeriodUS)
		}
		if *healthSuspectUS > 0 {
			cfg.Health.SuspectAfter = us(*healthSuspectUS)
		}
		if *healthStabilizeUS > 0 {
			cfg.Health.StabilizeDelay = us(*healthStabilizeUS)
		}
		cfg.Health.SlowDetect = *hedge
	}
	cfg.NIC.Resources = config.ResourceConfig{
		TriggerEntries:     *capTrig,
		PlaceholderEntries: *capPlaceholders,
		CmdQueueDepth:      *capCmdQ,
		EQDepth:            *capEQ,
	}
	if o.capTrigFIFO > 0 {
		cfg.NIC.TriggerFIFODepth = o.capTrigFIFO
	}
	if *topo != "" {
		cfg.Network.Topology = *topo
		if *topo == config.TopologyTree && *topoLeaf > 0 {
			cfg.Network.TreeLeafSize = *topoLeaf
		}
	}
	cfg.Network.FatTree = config.TopologyConfig{
		LeafSize:     *topoLeaf,
		PodLeaves:    *topoPodLeaves,
		Spines:       *topoSpines,
		Cores:        *topoCores,
		QueueCredits: *topoCredits,
		ECNThreshold: *topoECN,
	}
	o.cfg = cfg
	return o, nil
}

// experimentsToRun resolves -exp against the experiment registry.
func experimentsToRun(exp string) ([]string, error) {
	switch exp {
	case "all":
		return bench.ExperimentNames(true), nil
	case "figures":
		return bench.FigureNames(), nil
	}
	if names := bench.ExperimentNames(false); !slices.Contains(names, exp) {
		return nil, fmt.Errorf("unknown experiment %q (want one of %v, figures, or all; -list describes them)", exp, names)
	}
	return []string{exp}, nil
}

// printList renders -list from the experiment registry.
func printList() {
	var skipped []string
	for _, e := range bench.Experiments {
		desc := e.Desc
		if !e.InAll {
			desc += " (not part of -exp all)"
			skipped = append(skipped, e.Name)
		}
		fmt.Printf("%-10s  %s\n", e.Name, desc)
	}
	fmt.Printf("%-10s  %s\n", "figures", strings.Join(bench.FigureNames(), "+"))
	fmt.Printf("%-10s  %s\n", "all", "every experiment above except "+strings.Join(skipped, " and "))
}

// writeCSV saves a figure's series to <dir>/<name>.csv when dir is set.
func writeCSV(dir, name, xlabel string, series []*stats.Series) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := stats.WriteSeriesCSV(f, xlabel, series); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// fileKey is a backend's lower-case file-name form ("GPU-TN" -> "gputn").
func fileKey(k backends.Kind) string {
	return strings.ToLower(strings.ReplaceAll(k.String(), "-", ""))
}

// writeTraces saves fig8's HDN, GDS and GPU-TN span timelines as
// <dir>/fig8-<backend>.trace.json when dir is set.
func writeTraces(dir string, res *bench.Fig8Result) error {
	if dir == "" {
		return nil
	}
	for _, kind := range []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN} {
		path := filepath.Join(dir, fmt.Sprintf("fig8-%s.trace.json", fileKey(kind)))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := res.Runs[kind].Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:])) }

// run is main minus os.Exit, so profile-flushing defers always execute.
func run(args []string) int {
	o, err := parseArgs(args, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if o.list {
		printList()
		return 0
	}
	cfg := o.cfg
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gputn-bench:", err)
		return 2
	}
	names, err := experimentsToRun(o.exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if o.traceOut != "" && !slices.Contains(names, "fig8") {
		fmt.Fprintln(os.Stderr, "gputn-bench: -trace-out records fig8 spans; this run does not include fig8")
		return 2
	}

	bench.SetParallelism(o.parallel)

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gputn-bench:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gputn-bench:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", o.cpuprofile)
		}()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gputn-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gputn-bench:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", o.memprofile)
		}()
	}

	if cfg.Faults.Enabled() && !o.reliable {
		fmt.Fprintln(os.Stderr, "warning: faults armed without -reliable; lossy runs may lose messages and hang or skew results")
	}
	if cfg.Scenario.Crashes() && o.exp != "crash" && o.exp != "chaossearch" {
		fmt.Fprintln(os.Stderr, "warning: -scenario-events crashes nodes in a non-crash experiment; only crash-aware recovery drivers survive a mid-run crash")
	}
	// Run header: every invocation states its fault schedules up front so
	// saved outputs are self-describing. A scenario is its own schedule
	// record; it compiles into the crash plan only when a cluster is built.
	fmt.Println(fault.NewInjector(cfg.Faults).Summary())
	if !cfg.Scenario.Crashes() {
		fmt.Println(fault.NewCrashPlan(cfg.Crash).Summary())
	}
	switch cfg.Network.Topology {
	case config.TopologyFatTree:
		ft := cfg.Network.FatTree.WithDefaults()
		fmt.Printf("topology: fattree leaf=%d podleaves=%d spines=%d cores=%d credits=%d ecn=%d\n",
			ft.LeafSize, ft.PodLeaves, ft.Spines, ft.Cores, ft.QueueCredits, ft.ECNThreshold)
	case config.TopologyTree:
		fmt.Printf("topology: tree leaf=%d\n", cfg.Network.TreeLeafSize)
	}
	if cfg.Scenario.Enabled() {
		fmt.Printf("scenario: seed=%d domains=%q events=%q\n", cfg.Scenario.Seed,
			config.FormatScenarioDomains(cfg.Scenario.Domains), config.FormatScenarioEvents(cfg.Scenario.Events))
	}
	if h := cfg.Health; h.Enabled {
		fmt.Printf("health: period=%v suspectAfter=%v stabilize=%v\n",
			h.Period, h.SuspectAfter, h.StabilizeDelay)
		if h.SlowDetect {
			fmt.Printf("slow detect: threshold=%.2f recover=%.2f grace=%v\n",
				h.EffectiveSlowThreshold(), h.EffectiveSlowRecover(), h.EffectiveSlowGrace())
		}
	}
	if o.reliable {
		r := cfg.NIC.Reliability
		rto := "static"
		if r.AdaptiveRTO {
			rto = "adaptive (Jacobson/Karels)"
		}
		fmt.Printf("reliability: window=%d rtoBase=%v rtoPerKB=%v maxBackoff=%v budget=%d rto=%s\n",
			r.WindowSize, r.RTOBase, r.RTOPerKB, r.MaxBackoff, r.RetryBudget, rto)
	}
	if cfg.NIC.E2EChecksum {
		fmt.Printf("e2e checksum: on latency=%v\n", cfg.NIC.E2EChecksumLatency)
	}
	if rc := cfg.NIC.Resources; rc.Enabled() || o.capTrigFIFO > 0 {
		fmt.Printf("resources: triggerEntries=%d placeholders=%d cmdq=%d trigFIFO=%d eq=%d (0 = unbounded/default)\n",
			rc.TriggerEntries, rc.PlaceholderEntries, rc.CmdQueueDepth, cfg.NIC.TriggerFIFODepth, rc.EQDepth)
	}
	fmt.Println()
	runners := experimentRunners(o)
	for _, name := range names {
		if err := runners[name](); err != nil {
			fmt.Fprintln(os.Stderr, "gputn-bench:", err)
			return 1
		}
	}
	return 0
}

// experimentRunners maps every registry experiment to the code that runs
// and prints it.
func experimentRunners(o *options) map[string]func() error {
	cfg := o.cfg
	return map[string]func() error{
		"fig1": func() error {
			series := bench.Figure1(cfg)
			fmt.Println(stats.RenderSeries("Figure 1: kernel launch latency (us) vs queued kernel commands",
				"queued", series))
			fmt.Println(stats.Plot(series, stats.PlotOptions{LogX: true, XLabel: "queued kernel commands", Title: "launch latency (us)"}))
			return writeCSV(o.csvDir, "fig1", "queued", series)
		},
		"fig8": func() error {
			res := bench.Figure8Extended(cfg)
			fmt.Println(bench.RenderFigure8(res))
			fmt.Println(bench.RenderFigure8Bars(res))
			fmt.Println(bench.RenderFigure8Extended(res))
			return writeTraces(o.traceOut, res)
		},
		"fig9": func() error {
			series := bench.Figure9(cfg)
			fmt.Println(stats.RenderSeries("Figure 9: Jacobi speedup vs HDN (2x2 nodes, per-iteration)",
				"N", series))
			fmt.Println(stats.Plot(series, stats.PlotOptions{LogX: true, XLabel: "local grid N", Title: "speedup vs HDN"}))
			return writeCSV(o.csvDir, "fig9", "N", series)
		},
		"fig10": func() error {
			series := bench.Figure10(cfg)
			fmt.Println(stats.RenderSeries("Figure 10: 8MB Allreduce speedup vs CPU (strong scaling)",
				"nodes", series))
			fmt.Println(stats.Plot(series, stats.PlotOptions{XLabel: "nodes", Title: "speedup vs CPU"}))
			return writeCSV(o.csvDir, "fig10", "nodes", series)
		},
		"fig11": func() error {
			results, err := bench.Figure11(cfg)
			if err != nil {
				return fmt.Errorf("fig11: %w", err)
			}
			fmt.Println(bench.RenderFigure11(results))
			return nil
		},
		"table1":    func() error { fmt.Println(bench.RenderTable1()); return nil },
		"table2":    func() error { fmt.Println(bench.RenderTable2(cfg)); return nil },
		"table3":    func() error { fmt.Println(bench.RenderTable3()); return nil },
		"ablations": func() error { fmt.Println(bench.RenderAblations(cfg)); return nil },
		"faults": func() error {
			// The fault-tolerance sweep arms its own injector per drop
			// rate; the -fault-* flags select the baseline configuration.
			fmt.Println(bench.RenderFaultTolerance(cfg))
			return nil
		},
		"resources": func() error {
			// The pressure sweep sets its own trigger-list caps per row;
			// the -cap-* flags select the baseline configuration.
			fmt.Println(bench.RenderResourcePressure(cfg))
			return nil
		},
		"crash": func() error {
			// The recovery sweep sets its own crash schedule per cell; the
			// -health-* flags select the heartbeat timing.
			fmt.Println(bench.RenderCrashRecovery(cfg))
			return nil
		},
		"partitions": func() error {
			// The partition sweep sets its own cut and degradation schedules
			// per cell; the -health-* flags select the heartbeat timing.
			fmt.Println(bench.RenderPartitions(cfg))
			return nil
		},
		"sdc": func() error {
			// The SDC sweep arms its own corruption schedule and e2e
			// checksum per cell; the -e2e-latency-ns and -health-* flags
			// select the baseline pricing and heartbeat timing.
			fmt.Println(bench.RenderSDC(cfg))
			return nil
		},
		"stragglers": func() error {
			// The straggler sweep arms its own fail-slow schedule and
			// detection timing per cell.
			fmt.Println(bench.RenderStragglers(cfg))
			return nil
		},
		"sensitivity": func() error {
			bases := []backends.Kind{backends.HDN, backends.GDS}
			grids := bench.Sensitivity(cfg, bases...)
			for i, base := range bases {
				fmt.Println(bench.RenderSensitivity(base, grids[i]))
				if err := writeCSV(o.csvDir, "sensitivity-"+fileKey(base), "gbps", grids[i]); err != nil {
					return err
				}
			}
			return nil
		},
		"mlscale": func() error {
			out, err := bench.RenderMLScale(cfg)
			if err != nil {
				return err
			}
			fmt.Println(out)
			return nil
		},
		"chaossearch": func() error {
			// Search mode samples -chaos-trials random composed scenarios and
			// shrinks the first auditor violation; replay mode reruns the
			// -scenario-* flags (a minimized reproducer) on every backend.
			if o.chaosReplay {
				if !cfg.Scenario.Enabled() {
					return fmt.Errorf("chaossearch: -chaos-replay needs -scenario-domains/-scenario-events")
				}
				fmt.Println(bench.RenderChaosReplay(cfg, o.chaosInject))
				return nil
			}
			fmt.Println(bench.RenderChaosSearch(cfg, bench.ChaosConfig{
				Seed:   o.chaosSeed,
				Trials: o.chaosTrials,
				Inject: o.chaosInject,
			}))
			return nil
		},
		"perf": func() error {
			rep, err := bench.RunPerf(cfg, o.perfPreset)
			if err != nil {
				return err
			}
			fmt.Println(rep.Render())
			var regressions []string
			if o.benchBaseline != "" {
				base, err := bench.LoadPerfReport(o.benchBaseline)
				if err != nil {
					return err
				}
				regressions = bench.ComparePerf(rep, base, o.benchTolerance)
			}
			if o.benchOut != "" {
				if err := rep.WriteJSON(o.benchOut); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", o.benchOut)
			}
			if len(regressions) > 0 {
				for _, r := range regressions {
					fmt.Fprintln(os.Stderr, "perf regression:", r)
				}
				return fmt.Errorf("perf: %d experiment(s) regressed beyond %.0f%% vs %s",
					len(regressions), o.benchTolerance*100, o.benchBaseline)
			}
			return nil
		},
	}
}
