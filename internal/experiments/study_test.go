package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hyperprof/internal/workload"
)

// studyCase is one row of the conformance table: a study-table row at its
// test size.
type studyCase struct {
	Study
	cfg StudyConfig
	// seedSensitive additionally requires a different seed to change the
	// bytes.
	seedSensitive bool
	// hostText marks a text report that prints host measurements (fleet's
	// live heap), so only the JSON report is compared.
	hostText bool
}

// remotable reports whether the study's arms also run on exec workers.
func (st studyCase) remotable() bool {
	_, ok := st.Modifiers["backend"]
	return ok
}

// allOutputs asks a study for every output file the CLI can request.
var allOutputs = Request{Chrome: "trace.json", ObsOut: "obs-series.json", Pprof: "profile", Extended: true}

// conformanceStudies is the conformance table: every row of the study table
// at its test size, plus latency, the one study only tests run.
func conformanceStudies(t *testing.T) []studyCase {
	ops := func(full, short PlatformOps) PlatformOps {
		if testing.Short() {
			return short
		}
		return full
	}

	char := DefaultCharStudyConfig()
	char.Ops = ops(PlatformOps{Spanner: 300, BigTable: 300, BigQuery: 60}, PlatformOps{Spanner: 120, BigTable: 120, BigQuery: 24})

	resilience := DefaultResilienceStudyConfig()
	resilience.Ops = ops(PlatformOps{Spanner: 200, BigTable: 200, BigQuery: 24}, PlatformOps{Spanner: 100, BigTable: 100, BigQuery: 12})
	resilience.Obs.Enabled = true

	obsCfg := DefaultObsStudyConfig()
	obsCfg.Ops = ops(PlatformOps{Spanner: 200, BigTable: 200, BigQuery: 30}, PlatformOps{Spanner: 100, BigTable: 100, BigQuery: 12})

	overload := overloadTestConfig()
	overload.Obs.Enabled = true

	partition := smallPartitionConfig()
	partition.Check.IncludeBroken = true
	if testing.Short() {
		partition.Check.Seeds = 1
		partition.Ops = PlatformOps{Spanner: 80, BigTable: 80, BigQuery: 8}
	}

	fleet := smallFleetConfig()
	fleet.Fleet.Shape = workload.ArrivalShape{Burst: true, Diurnal: true}

	pipeline := pipelineTestConfig()
	pipeline.Check.IncludeBroken = true

	sizes := map[string]studyCase{
		"char":       {cfg: char},
		"safety":     {cfg: backendSafetyConfig()},
		"resilience": {cfg: resilience},
		"obs":        {cfg: obsCfg},
		"overload":   {cfg: overload},
		"partition":  {cfg: partition},
		"fleet":      {cfg: fleet, seedSensitive: true, hostText: true},
		"pipeline":   {cfg: pipeline},
		"limits":     {cfg: char},
		"table8":     {cfg: StudyConfig{Seed: 1}},
	}
	var studies []studyCase
	for _, st := range Studies() {
		c, ok := sizes[st.Name]
		if !ok {
			t.Fatalf("study %q has no conformance size", st.Name)
		}
		c.Study = st
		studies = append(studies, c)
	}

	latencyOps := 150
	if testing.Short() {
		latencyOps = 80
	}
	latency := Study{
		Name: "latency",
		Run: func(cfg StudyConfig, _ Request) (*Result, error) {
			points, err := cfg.Latency([]float64{400, 800, 1200}, latencyOps)
			if err != nil {
				return nil, err
			}
			return &Result{Text: RenderLatency(points)}, nil
		},
		// Latency's arms run on exec workers too.
		Modifiers: map[string]string{"backend": ""},
	}
	return append(studies, studyCase{Study: latency, cfg: StudyConfig{Seed: 1}})
}

// Run modes of a conformance row. Every mode but modeSeedPlusOne must export
// the same bytes as modeSequential.
const (
	modeSequential  = "parallel 1"
	modeParallel    = "parallel 4"
	modeExec        = "exec"
	modeSeedPlusOne = "seed+1"
)

// conformanceExport runs st in the given mode and returns its export. It
// also gates the run's lifecycle: once the study returns, every goroutine
// it started — simulated processes, pool workers, exec pipe readers — must
// have ended.
func conformanceExport(t *testing.T, st studyCase, mode string) []byte {
	t.Helper()
	base := runtime.NumGoroutine()
	cfg := st.cfg
	cfg.Parallel = 1
	switch mode {
	case modeParallel:
		cfg.Parallel = 4
	case modeExec:
		cfg = withExec(t, st.cfg)
	case modeSeedPlusOne:
		cfg.Seed++
	}
	if mode == modeSequential {
		defer countTracers(st.Name)()
	}
	res, err := st.Run(cfg, allOutputs)
	if err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, st.Name+" "+mode, base)
	return emitted(t, res, !st.hostText)
}

// emitted is every byte the CLI writes for res under allOutputs: the text
// stdout (when withText is set), the JSON stdout where the study has one,
// and each file, plus the verdict.
func emitted(t *testing.T, res *Result, withText bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if withText {
		text, _ := res.Emit(false)
		buf.Write(text)
	}
	if res.JSON != nil {
		jsonOut, _ := res.Emit(true)
		buf.Write(jsonOut)
	}
	_, files := res.Emit(false)
	for _, f := range files {
		fmt.Fprintf(&buf, "== %s\n", f.Path)
		buf.Write(f.Data)
	}
	if res.Series != nil {
		var series []struct {
			Platform string
			Series   []json.RawMessage
		}
		if err := json.Unmarshal(res.Series.Data, &series); err != nil {
			t.Fatal(err)
		}
		for _, ps := range series {
			if len(ps.Series) == 0 {
				t.Fatalf("%s: no observability series collected", ps.Platform)
			}
		}
	}
	fmt.Fprintf(&buf, "verdict: %v\n", res.Verdict)
	return buf.Bytes()
}

// checkGoroutines fails t unless the goroutine count returns to base. A
// goroutine that has handed back its last result may still be returning, so
// it polls for a few seconds before failing.
func checkGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%s: %d goroutines still running after the study returned, %d before it", what, n, base)
	}
}

// conformanceDigests memoizes the SHA-256 of each (study, mode) export, so a
// run is computed once per test binary however many of the tests below
// compare it. Only the digest is kept, so no export outlives its hashing.
var conformanceDigests = map[string][sha256.Size]byte{}

func conformanceDigest(t *testing.T, st studyCase, mode string) [sha256.Size]byte {
	t.Helper()
	key := st.Name + "/" + mode
	if d, ok := conformanceDigests[key]; ok {
		return d
	}
	d := sha256.Sum256(conformanceExport(t, st, mode))
	conformanceDigests[key] = d
	return d
}

// checkConformance compares the named study's sequential export against each
// of modes: byte-identical, except modeSeedPlusOne, which must differ. On a
// mismatch both exports are recomputed to report where they diverge.
func checkConformance(t *testing.T, name string, modes ...string) {
	t.Helper()
	for _, st := range conformanceStudies(t) {
		if st.Name != name {
			continue
		}
		want := conformanceDigest(t, st, modeSequential)
		for _, mode := range modes {
			got := conformanceDigest(t, st, mode)
			if mode == modeSeedPlusOne {
				if want == got {
					t.Fatal("a different seed produced identical bytes")
				}
				continue
			}
			if want != got {
				a, b := conformanceExport(t, st, modeSequential), conformanceExport(t, st, mode)
				t.Fatalf("%s diverged from parallel 1: digests %x vs %x; on rerun %d vs %d bytes (first diff at %d)",
					mode, want[:4], got[:4], len(a), len(b), firstDiff(a, b))
			}
		}
		return
	}
	t.Fatalf("no conformance study %q", name)
}

// TestStudyConformance pins the harness's core guarantee for every study:
// where an arm computes never changes what it computes. Everything the CLI
// writes for a study — its report, Chrome trace, profiles, metric series and
// verdict — must be byte-identical sequentially (Parallel 1), on the goroutine pool
// (Parallel 4) and, for every remotable study, across exec worker
// subprocesses.
func TestStudyConformance(t *testing.T) {
	for _, st := range conformanceStudies(t) {
		t.Run(st.Name, func(t *testing.T) {
			modes := []string{modeParallel}
			if st.remotable() {
				modes = append(modes, modeExec)
			}
			if st.seedSensitive {
				modes = append(modes, modeSeedPlusOne)
			}
			checkConformance(t, st.Name, modes...)
		})
	}
}

// The per-study tests below each check one slice of the conformance table,
// sharing its memoized runs.

func TestCharacterizationParallelMatchesSequentialByteForByte(t *testing.T) {
	checkConformance(t, "char", modeParallel)
}

func TestObsStudyParallelMatchesSequentialByteForByte(t *testing.T) {
	checkConformance(t, "obs", modeParallel)
}

func TestSafetyStudyParallelMatchesSequentialByteForByte(t *testing.T) {
	checkConformance(t, "safety", modeParallel)
}

func TestSafetyStudyIdenticalAcrossBackends(t *testing.T) {
	checkConformance(t, "safety", modeExec)
}

func TestSafetyStudyIsDeterministic(t *testing.T) {
	checkConformance(t, "safety", modeParallel, modeExec)
}

func TestResilienceStudyParallelMatchesSequentialByteForByte(t *testing.T) {
	checkConformance(t, "resilience", modeParallel)
}

func TestResilienceStudyIdenticalAcrossBackends(t *testing.T) {
	checkConformance(t, "resilience", modeExec)
}

// TestResilienceStudyDeterministic covers the fault events too: they are part
// of the resilience export.
func TestResilienceStudyDeterministic(t *testing.T) {
	checkConformance(t, "resilience", modeParallel, modeExec)
}

func TestLatencyStudyIdenticalAcrossBackends(t *testing.T) {
	checkConformance(t, "latency", modeExec)
}

func TestOverloadStudyParallelMatchesSequentialByteForByte(t *testing.T) {
	checkConformance(t, "overload", modeParallel)
}

func TestOverloadStudyIdenticalAcrossBackends(t *testing.T) {
	checkConformance(t, "overload", modeExec)
}

func TestPartitionStudyDeterministic(t *testing.T) {
	checkConformance(t, "partition", modeParallel)
}

func TestPartitionStudyIdenticalAcrossBackends(t *testing.T) {
	checkConformance(t, "partition", modeExec)
}

func TestFleetScaleDeterministic(t *testing.T) {
	checkConformance(t, "fleet", modeParallel, modeSeedPlusOne)
}

func TestFleetScaleBackends(t *testing.T) {
	checkConformance(t, "fleet", modeExec)
}

func TestPipelineStudyIdenticalAcrossBackends(t *testing.T) {
	checkConformance(t, "pipeline", modeExec)
}

func TestPipelineStudySequentialMatchesParallel(t *testing.T) {
	checkConformance(t, "pipeline", modeParallel)
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// stackTracers counts, per study, the stacks its sequential conformance run
// built with a tracer ([0]) and without one ([1]).
var stackTracers = map[string][2]int{}

// countTracers starts counting the tracers of the named study's stacks and
// returns the function that stops it.
func countTracers(name string) (stop func()) {
	var mu sync.Mutex
	stackTracers[name] = [2]int{}
	stackBuilt = func(s *stack) {
		mu.Lock()
		defer mu.Unlock()
		n := stackTracers[name]
		if s.env.Tracer != nil {
			n[0]++
		} else {
			n[1]++
		}
		stackTracers[name] = n
	}
	return func() { stackBuilt = nil }
}

// TestOnlyTraceReadingStudiesTrace pins which studies record traces. The
// ones that read them (char and limits through the characterization, obs,
// resilience and pipeline) build every stack with a tracer; every other
// study builds its stacks with none, so its operations pay nothing for
// tracing. A study that starts reading traces must move to the first list,
// or it reads nothing.
func TestOnlyTraceReadingStudiesTrace(t *testing.T) {
	readsTraces := map[string]bool{"char": true, "limits": true, "obs": true, "resilience": true, "pipeline": true}
	// Table8 runs on the simulated SoC and builds no platform stack.
	buildsNone := map[string]bool{"table8": true}
	for _, st := range conformanceStudies(t) {
		conformanceDigest(t, st, modeSequential)
		n := stackTracers[st.Name]
		traced, untraced := n[0], n[1]
		switch {
		case buildsNone[st.Name]:
			if traced+untraced != 0 {
				t.Errorf("%s: built %d platform stacks, want none", st.Name, traced+untraced)
			}
		case traced+untraced == 0:
			t.Errorf("%s: built no platform stack", st.Name)
		case readsTraces[st.Name] && untraced > 0:
			t.Errorf("%s reads traces but built %d of %d stacks without a tracer", st.Name, untraced, traced+untraced)
		case !readsTraces[st.Name] && traced > 0:
			t.Errorf("%s reads no trace but built %d of %d stacks with a tracer", st.Name, traced, traced+untraced)
		}
	}
}
