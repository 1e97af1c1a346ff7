// Command bench is hyperprof's study-level benchmark. Each rep runs one
// study entry point at a fixed size, once per seed of the workload, each
// call in a fresh child process, and records host cost (wall, CPU,
// allocation, peak RSS) with tracing off; the set-up time of the three
// platform stacks is measured in children of its own. A separate traced run
// (-trace 1) wraps the calls the benchmark makes into each layer in spans
// and reports per-layer metrics. Every call checks the study's verdict and
// that its canonical artifact hashes the same as the run's first call at
// that seed.
//
// Run it from the repository root with bash bench/run.sh; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupRuns is how many set-up children a workload measures; setup_s is
// their median.
const setupRuns = 7

// runDeadline bounds a time-boxed run, so it ends within the three minutes
// a caller allows it even if a child hangs.
const runDeadline = 170 * time.Second

// resultFile is written to -o: the environment and every workload's samples.
type resultFile struct {
	Env       stamp            `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult is one workload's run: end-to-end samples per metric, or
// with Traced the per-layer samples plus the first traced rep's split and
// spans.
type workloadResult struct {
	Name   string `json:"name"`
	Traced bool   `json:"traced"`
	// Digests maps each study seed the run covered to its artifact's SHA-256.
	Digests   map[uint64]string    `json:"digests"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Samples   map[string][]float64 `json:"samples"`
	Split     map[string]float64   `json:"split,omitempty"`
	Spans     []span               `json:"spans,omitempty"`
}

func (r *workloadResult) failedFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// check counts one attempt; a non-nil err fails it.
func (r *workloadResult) check(err error) bool {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Failures = append(r.Failures, err.Error())
		fmt.Fprintf(os.Stderr, "bench: %s: FAIL: %v\n", r.Name, err)
	}
	return err == nil
}

// checkDigest fails an attempt whose artifact differs from the run's first
// at the same seed.
func (r *workloadResult) checkDigest(seed uint64, d string) error {
	first, ok := r.Digests[seed]
	if !ok {
		r.Digests[seed] = d
		return nil
	}
	if d != first {
		return fmt.Errorf("seed %d: digest %s differs from the run's first %s", seed, d, first)
	}
	return nil
}

func newResult(name string, traced bool) workloadResult {
	return workloadResult{Name: name, Traced: traced, Digests: map[uint64]string{}, Samples: map[string][]float64{}}
}

func (r *workloadResult) add(name string, v float64) {
	r.Samples[name] = append(r.Samples[name], v)
}

// schedule decides how many reps a run makes: a fixed count, or as many as
// fit in a time box (at least one).
type schedule struct {
	reps    int
	seconds time.Duration
}

// more reports whether rep i (0-based) should start, given when the first
// started and how long the last took.
func (s schedule) more(i int, start time.Time, last time.Duration) bool {
	if s.seconds > 0 {
		return i == 0 || time.Since(start)+last <= s.seconds
	}
	return i < s.reps
}

func childArgs(mode string, w *spec, seed uint64) []string {
	return []string{"-child", mode, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10)}
}

// measure is the end-to-end run of one workload: the set-up children, one
// discarded warm-up call, then the measured reps.
func measure(ctx context.Context, w *spec, seed uint64, s schedule) workloadResult {
	r := newResult(w.Name, false)
	for i := 0; i < setupRuns; i++ {
		var out setupOut
		err := child(ctx, &out, childArgs("setup", w, seed)...)
		if err == nil && out.Err != "" {
			err = fmt.Errorf("setup: %s", out.Err)
		}
		if r.check(err) {
			r.add("setup_s", out.SetupS)
		}
	}
	call := func(w *spec, seed uint64) (repOut, error) {
		var out repOut
		err := child(ctx, &out, childArgs("rep", w, seed)...)
		if err == nil && out.Err != "" {
			err = fmt.Errorf("rep: %s", out.Err)
		}
		if err == nil {
			err = r.checkDigest(seed, out.Digest)
		}
		return out, err
	}
	warm := w
	if w.warmup != "" {
		// The registry's warm-up names are its own workloads.
		warm, _ = lookupWorkload(w.warmup)
	}
	_, err := call(warm, seed)
	r.check(err)
	start, last := time.Now(), time.Duration(0)
	for i := 0; ctx.Err() == nil && s.more(i, start, last); i++ {
		t := time.Now()
		sum, ok := map[string]float64{}, true
		for _, sd := range repSeeds(w, seed) {
			out, err := call(w, sd)
			if ok = r.check(err); !ok {
				break
			}
			for name, v := range out.Metrics {
				sum[name] += v
			}
		}
		last = time.Since(t)
		if ok {
			for _, m := range endToEnd {
				if v, found := sum[m.Name]; found {
					r.add(m.Name, v/float64(w.Seeds))
				}
			}
		}
	}
	return r
}

// measureTraced is the traced run of one workload, at its first seed.
func measureTraced(ctx context.Context, w *spec, seed uint64, s schedule) workloadResult {
	r := newResult(w.Name, true)
	start, last := time.Now(), time.Duration(0)
	for i := 0; ctx.Err() == nil && s.more(i, start, last); i++ {
		t := time.Now()
		var out tracedOut
		err := child(ctx, &out, childArgs("traced", w, seed)...)
		last = time.Since(t)
		if err == nil && out.Err != "" {
			err = fmt.Errorf("traced: %s", out.Err)
		}
		if err == nil {
			err = r.checkDigest(seed, out.Digest)
		}
		if !r.check(err) {
			continue
		}
		for _, m := range perLayer {
			r.add(m.Name, out.Layers[m.Name])
		}
		if r.Spans == nil {
			r.Split, r.Spans = out.Split, out.Spans
		}
	}
	return r
}

// runChild serves the -child modes and prints their one JSON line.
func runChild(mode string, w *spec, seed uint64) any {
	switch mode {
	case "rep":
		return runRep(w, seed)
	case "traced":
		return runTraced(w, seed)
	case "setup":
		return runSetup(seed)
	}
	return map[string]string{"err": "unknown child mode " + mode}
}

// summaryLine is the one-line JSON summary of a single-workload run.
func summaryLine(r workloadResult) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	if r.Traced {
		for _, m := range perLayer {
			ms[m.Name] = value{summarize(r.Samples[m.Name]).Median, m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.gated() {
				ms[m.Name] = value{summarize(r.Samples[m.Name]).Median, m.Unit}
			}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, ms})
}

func printResult(r workloadResult) {
	kind := "end to end"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("\n%s (%s)  failed %d/%d\n", r.Name, kind, r.Failed, r.Attempted)
	seeds := make([]uint64, 0, len(r.Digests))
	for sd := range r.Digests {
		seeds = append(seeds, sd)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, sd := range seeds {
		fmt.Printf("  digest at seed %d: %.16s\n", sd, r.Digests[sd])
	}
	fmt.Printf("  %-28s %-11s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	row := func(name, unit, note string) {
		s := summarize(r.Samples[name])
		fmt.Printf("  %-28s %-11s %12.6g %12.6g %12.6g %4d%s\n", name, unit, s.Median, s.Q1, s.Q3, s.N, note)
	}
	if r.Traced {
		for _, m := range perLayer {
			row(m.Name, m.Unit, "")
		}
		printSplit(r.Split)
		return
	}
	for _, m := range endToEnd {
		note := fmt.Sprintf("  bound %g", m.Bound)
		if !m.gated() {
			note = "  not gated"
		}
		row(m.Name, m.Unit, note)
	}
	fmt.Printf("  %-28s %-11s %12.6g\n", "failed_runs_frac", "fraction", r.failedFrac())
}

// printSplit prints self time per layer, largest first.
func printSplit(split map[string]float64) {
	var total float64
	layers := make([]string, 0, len(split))
	for layer, v := range split {
		total += v
		layers = append(layers, layer)
	}
	sort.Slice(layers, func(i, j int) bool { return split[layers[i]] > split[layers[j]] })
	fmt.Printf("  self time by layer (%.3f s traced):", total)
	for _, layer := range layers {
		if share := split[layer] / total; share >= 0.0005 {
			fmt.Printf(" %s %.1f%%", layer, 100*share)
		}
	}
	fmt.Println()
}

func main() {
	var (
		workerMode = flag.Bool("worker", false, "serve exec-backend work units on stdin/stdout (spawned by the safety_exec workload)")
		childMode  = flag.String("child", "", "run one child of a run: rep, setup or traced (spawned by the benchmark)")
		name       = flag.String("workload", "", "workload to run; empty runs the full set")
		seed       = flag.Uint64("seed", 1, "study seed; equal seeds give equal inputs")
		seconds    = flag.Int("seconds", 0, "time box per workload in seconds; 0 runs each workload's fixed rep count")
		traced     = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		outPath    = flag.String("o", "", "write the result file here")
		compare    = flag.Bool("compare", false, "compare two result files given as arguments: parent, then change")
	)
	flag.Parse()

	switch {
	case *workerMode:
		if err := serveWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	case *childMode != "":
		w, err := lookupWorkload(*name)
		var out any = map[string]string{"err": fmt.Sprint(err)}
		if err == nil {
			out = runChild(*childMode, w, *seed)
		}
		b, _ := json.Marshal(out)
		fmt.Println(string(b))
		return
	case *compare:
		os.Exit(runCompare(flag.Args()))
	}
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}

	env := newStamp(*seed)
	if env.GOMAXPROCS > env.NumCPU {
		fmt.Fprintf(os.Stderr, "bench: warning: GOMAXPROCS %d exceeds nproc %d; timings will be inflated\n", env.GOMAXPROCS, env.NumCPU)
	}
	selected := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fatalf("%v", err)
		}
		selected = []*spec{w}
	}
	// An interrupted run still kills and reaps every child process group.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *seconds > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, runDeadline)
		defer cancel()
	}
	fmt.Printf("go %s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d\n",
		env.Go, env.OS, env.Arch, env.GOMAXPROCS, env.NumCPU, env.CPU, env.Commit, env.Seed)

	res := resultFile{Env: env}
	failed := false
	for _, w := range selected {
		s := schedule{reps: w.Reps, seconds: time.Duration(*seconds) * time.Second}
		var r workloadResult
		if *traced == 1 {
			s.reps = 1
			r = measureTraced(ctx, w, *seed, s)
		} else {
			r = measure(ctx, w, *seed, s)
		}
		printResult(r)
		failed = failed || r.Failed > 0
		res.Workloads = append(res.Workloads, r)
	}
	if *outPath != "" {
		b, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatalf("write result: %v", err)
		}
	}
	if len(res.Workloads) == 1 {
		line, err := summaryLine(res.Workloads[0])
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fatalf("-compare takes two result files: parent, then change")
	}
	a, err := loadResult(args[0])
	if err != nil {
		fatalf("%v", err)
	}
	b, err := loadResult(args[1])
	if err != nil {
		fatalf("%v", err)
	}
	regressed, err := compareResults(os.Stdout, a, b)
	if err != nil {
		fatalf("%v", err)
	}
	if regressed {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
