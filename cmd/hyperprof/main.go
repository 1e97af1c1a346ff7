// Command hyperprof runs the paper's studies over the simulated Spanner,
// BigTable and BigQuery platforms. One selector picks the study:
//
//	-study=char        characterization (default) — Table 1, Figures 2–6, Tables 6–7
//	-study=safety      safety torture: checked histories under injected faults
//	-study=resilience  workloads under injected faults vs fault-free baselines
//	-study=obs         observability plane: sim-clock metrics + profiling
//	-study=overload    naive vs protected arms through a retry-storm trigger
//	-study=partition   partition nemesis: split-brain/gray-link/clock-skew
//	-study=fleet       fleet-scale characterization with bounded-memory sketches
//	-study=pipeline    cross-platform pipeline: BigTable ingest → BigQuery
//	                   analytics → Spanner serving in ONE simulation, with
//	                   end-to-end spans and exactly-once handoff checking
//
// -check adds the broken-knob demonstration arms the checkers must convict
// to the partition and pipeline studies; -obs instruments the selected study
// with the observability plane. All studies share one flag group that
// overlays the unified StudyConfig, plus small per-study groups (-fleet-*,
// -records/-batches/-iterations).
//
// Usage:
//
//	hyperprof [-study=<name>] [-seed N] [-spanner N] [-bigtable N]
//	          [-bigquery N] [-clients N] [-rate N] [-parallel N]
//	          [-backend exec] [-workers N] [-unit-timeout D] [...]
//
// With -backend=exec the process re-invokes itself as `hyperprof -worker`
// subprocesses and fans the study's work units across them; outputs are
// byte-identical to an in-process run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hyperprof"
)

// studyFlags is the single flag group every study mode shares. Numeric flags
// default to 0 meaning "keep the selected study's own default", so one group
// serves studies with different documented defaults (characterization runs
// 1500 Spanner ops, the safety torture 400) without re-declaring flags per
// mode.
type studyFlags struct {
	seed                        *uint64
	spanner, bigtable, bigquery *int
	clients                     *int
	rate                        *int
	parallel                    *int
	checkSeeds                  *int
	obs                         *bool
	obsInterval                 *time.Duration
	obsOut                      *string
	burst                       *bool
	diurnal                     *bool
	backend                     *string
	workers                     *int
	unitTimeout                 *time.Duration
}

// registerStudyFlags declares the shared flag group on the default FlagSet.
func registerStudyFlags() *studyFlags {
	return &studyFlags{
		seed:        flag.Uint64("seed", 1, "deterministic run seed"),
		spanner:     flag.Int("spanner", 0, "Spanner operation count (0 = study default)"),
		bigtable:    flag.Int("bigtable", 0, "BigTable operation count (0 = study default)"),
		bigquery:    flag.Int("bigquery", 0, "BigQuery query count (0 = study default)"),
		clients:     flag.Int("clients", 0, "closed-loop clients per platform (0 = study default)"),
		rate:        flag.Int("rate", 0, "trace sampling rate, keep 1/rate (0 = study default)"),
		parallel:    flag.Int("parallel", 0, "concurrent simulation kernels (0 = one per CPU, 1 = sequential); outputs are identical either way"),
		checkSeeds:  flag.Int("check-seeds", 0, "fault-injected seeds per platform or arm: safety, partition and pipeline studies (0 = study default)"),
		obs:         flag.Bool("obs", false, "instrument the selected study with the observability plane (sim-clock metrics + continuous profiling)"),
		obsInterval: flag.Duration("obs-interval", 0, "virtual-time metrics sampling period (0 = study default)"),
		obsOut:      flag.String("obs-out", "obs-series.json", "where -study=obs, and -obs with the resilience or overload study, write the metric time series as JSON"),
		burst:       flag.Bool("burst", false, "shape arrivals/think times with self-similar Pareto on-off bursts (overload and resilience studies)"),
		diurnal:     flag.Bool("diurnal", false, "shape arrivals/think times with a sinusoidal diurnal envelope (overload and resilience studies)"),
		backend:     flag.String("backend", "", `execution backend: "" (in-process) or "exec" (hyperprof -worker subprocesses); outputs are identical across backends`),
		workers:     flag.Int("workers", 0, "with -backend=exec: worker subprocesses (0 = match -parallel)"),
		unitTimeout: flag.Duration("unit-timeout", 0, "with -backend=exec: kill a worker whose unit exceeds this wall-clock duration (0 = none)"),
	}
}

// apply overlays the flag values onto a study's default configuration. Flags
// left at zero keep the study's documented defaults.
func (f *studyFlags) apply(cfg hyperprof.StudyConfig) hyperprof.StudyConfig {
	cfg.Seed = *f.seed
	cfg.Parallel = *f.parallel
	if *f.clients > 0 {
		cfg.Clients = *f.clients
	}
	if *f.rate > 0 {
		cfg.TraceRate = *f.rate
	}
	if *f.spanner > 0 {
		cfg.Ops.Spanner = *f.spanner
	}
	if *f.bigtable > 0 {
		cfg.Ops.BigTable = *f.bigtable
	}
	if *f.bigquery > 0 {
		cfg.Ops.BigQuery = *f.bigquery
	}
	if *f.checkSeeds > 0 {
		cfg.Check.Seeds = *f.checkSeeds
	}
	if *f.obs {
		cfg.Obs.Enabled = true
	}
	if *f.obsInterval > 0 {
		cfg.Obs.Interval = *f.obsInterval
	}
	cfg.Shape.Burst = *f.burst
	cfg.Shape.Diurnal = *f.diurnal
	cfg.Backend = *f.backend
	cfg.Exec.Workers = *f.workers
	cfg.Exec.UnitTimeout = *f.unitTimeout
	return cfg
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hyperprof: ")
	sf := registerStudyFlags()
	studySel := flag.String("study", "", "study to run: char, safety, resilience, obs, overload, partition, fleet or pipeline (empty = char)")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON instead of text tables")
	chromeOut := flag.String("chrome-trace", "", "also write sampled traces to this file in Chrome trace-event format (view in Perfetto)")
	topN := flag.Int("top", 0, "also print the N hottest leaf functions per platform")
	pprofPrefix := flag.String("pprof", "", "also write per-platform profiles as <prefix>-<platform>.pb.gz (inspect with go tool pprof)")
	checkRun := flag.Bool("check", false, "with -study=partition or -study=pipeline: include the broken-knob demonstration arms the checkers must convict")
	pipeRecords := flag.Int("records", 0, "with -study=pipeline: logical records flowing end to end (0 = study default)")
	pipeBatches := flag.Int("batches", 0, "with -study=pipeline: ingest batches the records arrive in (0 = study default)")
	pipeIters := flag.Int("iterations", 0, "with -study=pipeline: PageRank-style analytics iterations (0 = study default)")
	fleetServers := flag.Int("fleet-servers", 0, "with -study=fleet: total server machines across platforms (0 = study default, 2000)")
	fleetUsers := flag.Int("fleet-users", 0, "with -study=fleet: logical user population (0 = study default, 1000000)")
	fleetOps := flag.Int("fleet-ops", 0, "with -study=fleet: total completed-operation budget (0 = study default)")
	fleetHeapMB := flag.Int("fleet-heap-mb", 0, "with -study=fleet: fail (exit 1) if the coordinator's live heap after the run exceeds this many MiB (0 = no assertion)")
	sketchErr := flag.Float64("sketch-err", 0, "with -study=fleet: quantile sketch relative-error bound (0 = 1%)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the harness itself to this file (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile of the harness itself to this file on exit")
	worker := flag.Bool("worker", false, "serve study work units on stdin/stdout for an exec-backend coordinator (internal; spawned by -backend=exec)")
	flag.Parse()

	if *worker {
		if err := hyperprof.ServeStudyWorker(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := checkModifiers(*studySel, *checkRun); err != nil {
		log.Fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	switch *studySel {
	case "fleet":
		cfg := sf.apply(hyperprof.DefaultFleetStudyConfig())
		if *fleetServers > 0 {
			cfg.Fleet.Servers = *fleetServers
		}
		if *fleetUsers > 0 {
			cfg.Fleet.Users = *fleetUsers
		}
		if *fleetOps > 0 {
			cfg.Fleet.Ops = *fleetOps
		}
		if *sketchErr > 0 {
			cfg.Sketch.RelErr = *sketchErr
		}
		runFleet(cfg, *jsonOut, *fleetHeapMB)
	case "partition":
		cfg := sf.apply(hyperprof.DefaultPartitionStudyConfig())
		cfg.Part.IncludeBroken = *checkRun
		runPartition(cfg, *jsonOut, *chromeOut)
	case "pipeline":
		cfg := sf.apply(hyperprof.DefaultPipelineStudyConfig())
		if *pipeRecords > 0 {
			cfg.Pipe.Records = *pipeRecords
		}
		if *pipeBatches > 0 {
			cfg.Pipe.Batches = *pipeBatches
		}
		if *pipeIters > 0 {
			cfg.Pipe.Iterations = *pipeIters
		}
		cfg.Pipe.IncludeBroken = *checkRun
		runPipeline(cfg, *jsonOut, *chromeOut)
	case "safety":
		runSafety(sf.apply(hyperprof.DefaultSafetyStudyConfig()), *chromeOut)
	case "resilience":
		runResilience(sf.apply(hyperprof.DefaultResilienceStudyConfig()), *chromeOut, *sf.obsOut)
	case "overload":
		runOverload(sf.apply(hyperprof.DefaultOverloadStudyConfig()), *jsonOut, *sf.obsOut)
	case "obs":
		runObserve(sf.apply(hyperprof.DefaultObsStudyConfig()), *chromeOut, *sf.obsOut)
	case "", "char":
		runCharacterize(sf.apply(hyperprof.DefaultCharStudyConfig()), *jsonOut, *chromeOut, *topN, *pprofPrefix)
	default:
		log.Fatalf("unknown -study=%s (valid: char, safety, resilience, obs, overload, partition, fleet, pipeline)", *studySel)
	}
}

// checkModifiers rejects -check outside the two studies it modifies. A bare
// -check once selected the safety torture; ignoring it would quietly run the
// characterization in its place.
func checkModifiers(study string, check bool) error {
	if check && study != "partition" && study != "pipeline" {
		return fmt.Errorf("-check only applies to -study=partition or -study=pipeline; the safety torture is -study=safety")
	}
	return nil
}

// runCharacterize executes the characterization study and prints every §3–§5
// artifact (or the machine-readable report with -json).
func runCharacterize(cfg hyperprof.StudyConfig, jsonOut bool, chromeOut string, topN int, pprofPrefix string) {
	ch, err := cfg.Characterize()
	if err != nil {
		log.Fatal(err)
	}

	if jsonOut {
		data, err := hyperprof.BuildReport(ch).JSON()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
		return
	}

	out := os.Stdout
	fmt.Fprintln(out, hyperprof.RenderTable1(hyperprof.Table1(ch)))
	fmt.Fprintln(out, hyperprof.RenderTables23())
	fmt.Fprintln(out, hyperprof.RenderFigure2(hyperprof.Figure2(ch)))
	cpu, remote, io := hyperprof.Figure2Overall(ch)
	fmt.Fprintf(out, "Across all platforms: %.0f%% CPU, %.0f%% remote work, %.0f%% IO (paper: 48/22/30)\n\n",
		cpu*100, remote*100, io*100)
	fmt.Fprintln(out, hyperprof.RenderFigure3(hyperprof.Figure3(ch)))
	fmt.Fprintln(out, hyperprof.RenderFigure4(hyperprof.Figure4(ch)))
	fmt.Fprintln(out, hyperprof.RenderFigure5(hyperprof.Figure5(ch)))
	fmt.Fprintln(out, hyperprof.RenderFigure6(hyperprof.Figure6(ch)))
	fmt.Fprintln(out, hyperprof.RenderTables67(ch))
	for _, p := range hyperprof.Platforms() {
		fmt.Fprintf(out, "%s: %d traces over a simulated %v; mean %.1f KB storage read per query\n",
			p, len(ch.Traces[p]), ch.Elapsed[p].Round(1e6), ch.QueryBytes[p]/1024)
	}

	if topN > 0 {
		fmt.Fprintln(out, "\nHottest leaf functions (GWP view):")
		for _, p := range hyperprof.Platforms() {
			fmt.Fprintf(out, "  %s:\n", p)
			for _, fn := range ch.Prof(p).TopFunctions(p, topN) {
				fmt.Fprintf(out, "    %-34s %-18s %v\n", fn.Function, fn.Category, fn.CPU.Round(1e6))
			}
		}
	}

	if pprofPrefix != "" {
		for _, p := range hyperprof.Platforms() {
			data, err := ch.Prof(p).ExportPprof(p)
			if err != nil {
				log.Fatal(err)
			}
			name := fmt.Sprintf("%s-%s.pb.gz", pprofPrefix, strings.ToLower(string(p)))
			if err := os.WriteFile(name, data, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(out, "Wrote pprof profile %s (go tool pprof -top %s)\n", name, name)
		}
	}

	if chromeOut != "" {
		b := hyperprof.NewChromeBuilder()
		b.AddTraces(allTraces(ch.Traces), 2000)
		writeChrome(b, chromeOut, "")
	}
}

// runObserve executes the observability study: the characterization workload
// with the metrics plane on, exported as JSON time series and (with
// -chrome-trace) counter tracks beside the query intervals.
func runObserve(cfg hyperprof.StudyConfig, chromeOut, obsOut string) {
	o, err := hyperprof.Observe(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hyperprof.RenderObs(o))
	data, err := o.JSON()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(obsOut, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Wrote %d bytes of metric time series to %s\n", len(data), obsOut)
	if chromeOut != "" {
		b := hyperprof.NewChromeBuilder()
		b.AddTraces(allTraces(o.Char.Traces), 2000)
		b.AddCounters(o.CounterTracks())
		writeChrome(b, chromeOut, "with counter tracks")
	}
}

// runSafety executes the safety torture study: per platform, a fault-free
// calibration run plus a seed sweep of fault-injected runs, with operation
// histories checked for linearizability, structural violations and standing
// invariants. Any violation prints its reproducing seed and minimal
// violating history and the process exits nonzero. With -chrome-trace,
// violations are exported as instant marks on the timeline.
func runSafety(cfg hyperprof.StudyConfig, chromeOut string) {
	s, err := cfg.Safety()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hyperprof.RenderSafety(s))
	var marks []hyperprof.TraceMark
	for _, p := range hyperprof.Platforms() {
		marks = append(marks, s.Marks[p]...)
	}
	if chromeOut != "" && len(marks) == 0 {
		fmt.Printf("\nNo violations, so no trace events to mark — skipping %s\n", chromeOut)
	}
	if chromeOut != "" && len(marks) > 0 {
		b := hyperprof.NewChromeBuilder()
		b.AddMarks(marks)
		writeChrome(b, chromeOut, fmt.Sprintf("%d violation marks", len(marks)))
	}
	if !s.Ok() {
		os.Exit(1)
	}
}

// runResilience executes the fault-injection study and prints the
// availability/goodput/latency comparison. With -chrome-trace, the faulted
// arms' traces are exported with the applied fault events as instant marks;
// adding -obs interleaves metric counter tracks into the same document and
// writes the JSON time series beside it.
func runResilience(cfg hyperprof.StudyConfig, chromeOut, obsOut string) {
	res, err := cfg.Resilience()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hyperprof.RenderResilience(res))
	for _, p := range hyperprof.Platforms() {
		if row := res.Row(p, true); row != nil && len(row.FaultEvents) > 0 {
			fmt.Printf("%s faults:", p)
			for _, ev := range row.FaultEvents {
				fmt.Printf(" [%v %s]", ev.At.Round(time.Millisecond), ev.Label())
			}
			fmt.Println()
		}
	}
	if cfg.Obs.Enabled {
		data, err := hyperprof.MarshalMetricSeries(res.Series)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(obsOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Wrote %d bytes of metric time series (faulted arms) to %s\n", len(data), obsOut)
	}
	if chromeOut != "" {
		var marks []hyperprof.TraceMark
		for _, p := range hyperprof.Platforms() {
			marks = append(marks, res.Marks[p]...)
		}
		b := hyperprof.NewChromeBuilder()
		b.AddMarks(marks)
		b.AddTraces(allTraces(res.Traces), 2000)
		detail := fmt.Sprintf("with %d fault marks", len(marks))
		if cfg.Obs.Enabled {
			b.AddCounters(hyperprof.MetricCounterTracks(res.Series))
			detail += " and counter tracks"
		}
		writeChrome(b, chromeOut, detail)
	}
}

// runPartition executes the partition nemesis study and prints the
// naive-vs-hardened availability comparison (or the machine-readable export
// with -json). Any violation outside the broken demonstration arms prints
// its reproducing seed and minimal violating subhistory and the process
// exits nonzero. With -chrome-trace, the hardened arms' applied faults and
// any violations are exported as instant marks on the timeline.
func runPartition(cfg hyperprof.StudyConfig, jsonOut bool, chromeOut string) {
	s, err := cfg.Partition()
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		data, err := s.JSON()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	} else {
		fmt.Print(hyperprof.RenderPartition(s))
	}
	if chromeOut != "" {
		var marks []hyperprof.TraceMark
		for _, p := range hyperprof.Platforms() {
			marks = append(marks, s.Marks[p]...)
		}
		b := hyperprof.NewChromeBuilder()
		b.AddMarks(marks)
		writeChrome(b, chromeOut, fmt.Sprintf("%d fault/violation marks", len(marks)))
	}
	if !s.Ok() {
		os.Exit(1)
	}
}

// runPipeline executes the cross-platform pipeline study — BigTable ingest →
// BigQuery analytics → Spanner serving inside ONE simulation — and prints
// the per-arm comparison with per-stage §4.1 breakdowns (or the
// machine-readable export with -json). With -chrome-trace, the end-to-end
// spans are exported: every logical record's trace crosses all three
// platform process rows in a single document, with applied faults as
// instant marks. Any violation in an honest arm exits nonzero; with -check,
// the broken-handoff demonstration arm must be convicted by the
// exactly-once checker or the process also exits nonzero.
func runPipeline(cfg hyperprof.StudyConfig, jsonOut bool, chromeOut string) {
	s, err := hyperprof.Pipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		data, err := s.JSON()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	} else {
		fmt.Print(hyperprof.RenderPipeline(s))
	}
	if chromeOut != "" {
		data, err := s.Chrome()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(chromeOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nWrote %d bytes of Chrome trace events (%d end-to-end traces spanning three platform processes, %d marks) to %s (open in Perfetto)\n",
			len(data), len(s.Traces), len(s.Marks), chromeOut)
	}
	if !s.Ok() {
		os.Exit(1)
	}
	if cfg.Pipe.IncludeBroken && len(s.BrokenViolations) == 0 {
		log.Fatal("pipeline: the broken-handoff arm produced no violations — the exactly-once checker failed to convict")
	}
}

// runFleet executes the fleet-scale characterization, optionally asserting
// the coordinator's post-run live heap stays under a ceiling — the CI
// check-studies fleet gate's bounded-memory guarantee.
func runFleet(cfg hyperprof.StudyConfig, jsonOut bool, heapCeilingMB int) {
	st, err := hyperprof.FleetScale(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		data, err := hyperprof.MarshalFleet(st)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	} else {
		fmt.Print(hyperprof.RenderFleet(st))
	}
	if heapCeilingMB > 0 {
		if live := st.Heap.HeapAllocBytes >> 20; live > uint64(heapCeilingMB) {
			log.Fatalf("fleet heap assertion failed: %d MiB live after run, ceiling %d MiB", live, heapCeilingMB)
		}
		fmt.Fprintf(os.Stderr, "fleet heap assertion passed: %.1f MiB live <= %d MiB ceiling\n",
			float64(st.Heap.HeapAllocBytes)/(1<<20), heapCeilingMB)
	}
}

// runOverload executes the overload study and prints the naive-vs-protected
// comparison (or the machine-readable export with -json). With -obs, the
// protected arms' metric time series are written to obsOut in either mode;
// only text mode announces the file, so JSON output stays one valid document.
func runOverload(cfg hyperprof.StudyConfig, jsonOut bool, obsOut string) {
	o, err := hyperprof.OverloadControl(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		data, err := o.JSON()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	} else {
		fmt.Print(hyperprof.RenderOverload(o))
		for _, p := range hyperprof.Platforms() {
			if row := o.Row(p, true); row != nil {
				fmt.Printf("%s tenants (protected):", p)
				for _, tn := range row.Tenants {
					fmt.Printf(" [%s w%.0f ok=%d thr=%d]", tn.Name, tn.Weight, tn.Successes, tn.Throttled)
				}
				fmt.Println()
			}
		}
	}
	if !cfg.Obs.Enabled {
		return
	}
	data, err := hyperprof.MarshalMetricSeries(o.Series)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(obsOut, data, 0o644); err != nil {
		log.Fatal(err)
	}
	if !jsonOut {
		fmt.Printf("Wrote %d bytes of metric time series (protected arms) to %s\n", len(data), obsOut)
	}
}

// allTraces flattens a per-platform trace map in presentation order.
func allTraces(m map[hyperprof.Platform][]*hyperprof.QueryTrace) []*hyperprof.QueryTrace {
	var all []*hyperprof.QueryTrace
	for _, p := range hyperprof.Platforms() {
		all = append(all, m[p]...)
	}
	return all
}

// writeChrome marshals a built Chrome trace-event document to path.
func writeChrome(b *hyperprof.ChromeBuilder, path, detail string) {
	data, err := b.Marshal()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	if detail != "" {
		detail = " (" + detail + ")"
	}
	fmt.Printf("\nWrote %d bytes of Chrome trace events%s to %s (open in Perfetto)\n", len(data), detail, path)
}
