// Command hyperprof runs the paper's studies over the simulated Spanner,
// BigTable and BigQuery platforms. -study=<name> selects one row of the study
// table (experiments.Studies), which also fixes the flags the study accepts:
//
//	-study=char        characterization (default): Table 1, Figures 2–6, Tables 6–7
//	-study=safety      safety torture: checked histories under injected faults
//	-study=resilience  workloads under injected faults vs fault-free baselines
//	-study=obs         observability plane: sim-clock metrics and continuous profiling
//	-study=overload    naive vs protected arms through a retry-storm trigger
//	-study=partition   partition nemesis: split-brain, gray links and clock skew
//	-study=fleet       fleet-scale characterization with bounded-memory sketches
//	-study=pipeline    BigTable ingest → BigQuery analytics → Spanner serving
//	-study=limits      accelerator limit studies: Figures 9, 10 and 13–15
//	-study=table8      chained-model validation on the simulated SoC: Table 8
//
// A flag the selected study does not take, or a flag given without the flag
// it only works with (-workers without -backend=exec, -obs-out without -obs),
// is a usage error: no flag is ever silently ignored. `hyperprof -h` lists the
// studies and, for every flag, the studies that take it.
//
// With -backend=exec the process re-invokes itself as `hyperprof -worker`
// subprocesses and fans the study's work units across them; outputs are
// byte-identical to an in-process run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"hyperprof/internal/experiments"
)

// flagValues holds every command-line flag. Numeric study flags default to 0,
// meaning "keep the selected study's own default".
type flagValues struct {
	study                       string
	seed                        uint64
	spanner, bigtable, bigquery int
	clients, rate, parallel     int
	checkSeeds                  int
	obs                         bool
	obsInterval                 time.Duration
	obsOut                      string
	burst, diurnal              bool
	backend                     string
	workers                     int
	unitTimeout                 time.Duration
	json                        bool
	chromeOut                   string
	top                         int
	pprofPrefix                 string
	check                       bool
	records, batches, iters     int
	fleetServers, fleetUsers    int
	fleetOps, fleetHeapMB       int
	sketchErr                   float64
	extended                    bool
	cpuProfile, memProfile      string
	worker                      bool
}

// harnessFlags apply to every study: they select it or profile the process
// running it.
var harnessFlags = []string{"study", "cpuprofile", "memprofile"}

// newFlagSet declares every flag on a fresh FlagSet writing into v. Each
// study flag's help ends with the studies that take it.
func newFlagSet(studies []experiments.Study, v *flagValues) *flag.FlagSet {
	fs := flag.NewFlagSet("hyperprof", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var names []string
	for _, st := range studies {
		names = append(names, fmt.Sprintf("%s (%s)", st.Name, st.Doc))
	}
	fs.StringVar(&v.study, "study", "", "study to run, one of:\n"+strings.Join(names, "\n")+"\n(empty = "+studies[0].Name+")")
	fs.Uint64Var(&v.seed, "seed", 1, "deterministic run seed (unset = study default)")
	fs.IntVar(&v.spanner, "spanner", 0, "Spanner operation count (0 = study default)")
	fs.IntVar(&v.bigtable, "bigtable", 0, "BigTable operation count (0 = study default)")
	fs.IntVar(&v.bigquery, "bigquery", 0, "BigQuery query count (0 = study default)")
	fs.IntVar(&v.clients, "clients", 0, "closed-loop clients per platform (0 = study default)")
	fs.IntVar(&v.rate, "rate", 0, "trace sampling rate, keep 1/rate (0 = study default)")
	fs.IntVar(&v.parallel, "parallel", 0, "concurrent simulation kernels (0 = one per CPU, 1 = sequential); outputs are identical either way")
	fs.IntVar(&v.checkSeeds, "check-seeds", 0, "fault-injected seeds per platform or arm (0 = study default)")
	fs.BoolVar(&v.obs, "obs", false, "instrument the study with the observability plane (sim-clock metrics and continuous profiling)")
	fs.DurationVar(&v.obsInterval, "obs-interval", 0, "virtual-time metrics sampling period (0 = study default)")
	fs.StringVar(&v.obsOut, "obs-out", "obs-series.json", "where the metric time series go, as JSON")
	fs.BoolVar(&v.burst, "burst", false, "shape arrivals or think times with self-similar Pareto on-off bursts")
	fs.BoolVar(&v.diurnal, "diurnal", false, "shape arrivals or think times with a sinusoidal diurnal envelope")
	fs.StringVar(&v.backend, "backend", "", `execution backend: "" (in-process) or "exec" (hyperprof -worker subprocesses); outputs are identical across backends`)
	fs.IntVar(&v.workers, "workers", 0, "worker subprocesses (0 = match -parallel)")
	fs.DurationVar(&v.unitTimeout, "unit-timeout", 0, "kill a worker whose unit exceeds this wall-clock duration (0 = none)")
	fs.BoolVar(&v.json, "json", false, "emit the report as JSON instead of text")
	fs.StringVar(&v.chromeOut, "chrome-trace", "", "also write a Chrome trace-event document to this file (view in Perfetto)")
	fs.IntVar(&v.top, "top", 0, "also print the N hottest leaf functions per platform")
	fs.StringVar(&v.pprofPrefix, "pprof", "", "also write per-platform profiles as <prefix>-<platform>.pb.gz (inspect with go tool pprof)")
	fs.BoolVar(&v.check, "check", false, "include the broken-knob demonstration arms the checkers must convict")
	fs.IntVar(&v.records, "records", 0, "logical records flowing end to end (0 = study default)")
	fs.IntVar(&v.batches, "batches", 0, "ingest batches the records arrive in (0 = study default)")
	fs.IntVar(&v.iters, "iterations", 0, "PageRank-style analytics iterations (0 = study default)")
	fs.IntVar(&v.fleetServers, "fleet-servers", 0, "total server machines across platforms (0 = study default, 2000)")
	fs.IntVar(&v.fleetUsers, "fleet-users", 0, "logical user population (0 = study default, 1000000)")
	fs.IntVar(&v.fleetOps, "fleet-ops", 0, "total completed-operation budget (0 = study default)")
	fs.IntVar(&v.fleetHeapMB, "fleet-heap-mb", 0, "fail (exit 1) if the live heap after the run exceeds this many MiB (0 = no assertion)")
	fs.Float64Var(&v.sketchErr, "sketch-err", 0, "quantile sketch relative-error bound (0 = 1%)")
	fs.BoolVar(&v.extended, "extended", false, "also run the beyond-the-paper studies of §6.4")
	fs.StringVar(&v.cpuProfile, "cpuprofile", "", "write a CPU profile of the harness itself to this file (inspect with go tool pprof)")
	fs.StringVar(&v.memProfile, "memprofile", "", "write a heap profile of the harness itself to this file on exit")
	fs.BoolVar(&v.worker, "worker", false, "serve study work units on stdin/stdout for an exec-backend coordinator (internal; spawned by -backend=exec, takes no other flag)")
	fs.VisitAll(func(f *flag.Flag) {
		var takers []string
		for _, st := range studies {
			if _, ok := st.Modifiers[f.Name]; ok {
				takers = append(takers, st.Name)
			}
		}
		if len(takers) > 0 {
			f.Usage += " [" + strings.Join(takers, ", ") + "]"
		}
	})
	return fs
}

// invocation is one parsed command line.
type invocation struct {
	study experiments.Study
	cfg   experiments.StudyConfig
	req   experiments.Request
	// worker serves exec-backend work units instead of running a study.
	worker                 bool
	cpuProfile, memProfile string
}

// parseArgs resolves a command line against the study table: the selected
// study, its configuration with the flags overlaid, and the outputs asked
// for. It never runs a study. Every error but flag.ErrHelp is a usage error.
func parseArgs(studies []experiments.Study, args []string) (*invocation, error) {
	var v flagValues
	fs := newFlagSet(studies, &v)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	set := map[string]bool{}
	negative := ""
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		// Numbers below zero are no study's setting; 0 keeps the default.
		if _, text := f.Value.(flag.Getter).Get().(string); !text && strings.HasPrefix(f.Value.String(), "-") {
			negative = f.Name
		}
	})
	if negative != "" {
		return nil, fmt.Errorf("-%s must not be negative", negative)
	}
	if v.worker {
		if len(set) > 1 {
			return nil, fmt.Errorf("-worker takes no other flag")
		}
		return &invocation{worker: true}, nil
	}

	st := studies[0]
	if v.study != "" {
		i := slices.IndexFunc(studies, func(st experiments.Study) bool { return st.Name == v.study })
		if i < 0 {
			var names []string
			for _, st := range studies {
				names = append(names, st.Name)
			}
			return nil, fmt.Errorf("unknown -study=%s (valid: %s)", v.study, strings.Join(names, ", "))
		}
		st = studies[i]
	}
	var given []string
	for name := range set {
		given = append(given, name)
	}
	slices.Sort(given)
	for _, name := range given {
		if slices.Contains(harnessFlags, name) {
			continue
		}
		needs, ok := st.Modifiers[name]
		switch {
		case !ok:
			return nil, fmt.Errorf("-%s does not apply to -study=%s", name, st.Name)
		case needs != "" && fs.Lookup(needs).Value.String() == fs.Lookup(needs).DefValue:
			return nil, fmt.Errorf("-%s takes effect only with -%s", name, needs)
		}
	}
	switch {
	case v.backend != "" && v.backend != experiments.BackendExec:
		return nil, fmt.Errorf("-backend=%s: want %q", v.backend, experiments.BackendExec)
	case v.json && v.top > 0:
		return nil, fmt.Errorf("-top adds to the text report; it cannot be combined with -json")
	}

	cfg := st.Default()
	if set["seed"] {
		cfg.Seed = v.seed
	}
	cfg.Parallel = v.parallel
	for _, o := range []struct {
		dst *int
		v   int
	}{
		{&cfg.Clients, v.clients}, {&cfg.TraceRate, v.rate}, {&cfg.Check.Seeds, v.checkSeeds},
		{&cfg.Ops.Spanner, v.spanner}, {&cfg.Ops.BigTable, v.bigtable}, {&cfg.Ops.BigQuery, v.bigquery},
		{&cfg.Pipe.Records, v.records}, {&cfg.Pipe.Batches, v.batches}, {&cfg.Pipe.Iterations, v.iters},
		{&cfg.Fleet.Servers, v.fleetServers}, {&cfg.Fleet.Users, v.fleetUsers}, {&cfg.Fleet.Ops, v.fleetOps},
	} {
		if o.v > 0 {
			*o.dst = o.v
		}
	}
	if v.sketchErr > 0 {
		cfg.Sketch.RelErr = v.sketchErr
	}
	if v.obs {
		cfg.Obs.Enabled = true
	}
	if v.obsInterval > 0 {
		cfg.Obs.Interval = v.obsInterval
	}
	cfg.Shape.Burst = v.burst
	cfg.Shape.Diurnal = v.diurnal
	cfg.Check.IncludeBroken = v.check
	cfg.Backend = v.backend
	cfg.Exec.Workers = v.workers
	cfg.Exec.UnitTimeout = v.unitTimeout
	return &invocation{
		study: st,
		cfg:   cfg,
		req: experiments.Request{
			JSON:     v.json,
			Chrome:   v.chromeOut,
			ObsOut:   v.obsOut,
			Pprof:    v.pprofPrefix,
			Top:      v.top,
			Extended: v.extended,
			HeapMB:   v.fleetHeapMB,
		},
		cpuProfile: v.cpuProfile,
		memProfile: v.memProfile,
	}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hyperprof: ")
	studies := experiments.Studies()
	inv, err := parseArgs(studies, os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "hyperprof: %v\n", err)
		}
		fs := newFlagSet(studies, &flagValues{})
		fs.SetOutput(os.Stderr)
		fs.Usage()
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	if inv.worker {
		if err := experiments.ServeWorker(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(inv, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one parsed study invocation: it runs the study, writes its
// files and then its stdout, and returns the study's verdict.
func run(inv *invocation, stdout io.Writer) error {
	if inv.cpuProfile != "" {
		f, err := os.Create(inv.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if inv.memProfile != "" {
		defer func() {
			f, err := os.Create(inv.memProfile)
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
	res, err := inv.study.Run(inv.cfg, inv.req)
	if err != nil {
		return err
	}
	out, files := res.Emit(inv.req.JSON)
	for _, f := range files {
		if err := os.WriteFile(f.Path, f.Data, 0o644); err != nil {
			return err
		}
	}
	if _, err := stdout.Write(out); err != nil {
		return err
	}
	return res.Verdict
}
