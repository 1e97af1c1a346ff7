package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
	"hyperprof/internal/workload"
)

// studyCase is one row of the conformance table.
type studyCase struct {
	name string
	cfg  StudyConfig
	// export runs the study under cfg and serializes every artifact it
	// produces.
	export func(t *testing.T, cfg StudyConfig) []byte
	// inProcess marks studies with no wire form: they have no exec run.
	inProcess bool
	// seedSensitive additionally requires a different seed to change the
	// bytes.
	seedSensitive bool
}

// conformanceStudies is the conformance table: one row per study, each with
// an export of every artifact the study produces.
func conformanceStudies() []studyCase {
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

	partition := smallPartitionConfig()
	partition.Part.IncludeBroken = true
	if testing.Short() {
		partition.Check.Seeds = 1
		partition.Ops = PlatformOps{Spanner: 80, BigTable: 80, BigQuery: 8}
	}

	fleet := smallFleetConfig()
	fleet.Fleet.Shape = workload.ArrivalShape{Burst: true, Diurnal: true}

	pipeline := pipelineTestConfig()
	pipeline.Pipe.IncludeBroken = true

	latencyOps := 150
	if testing.Short() {
		latencyOps = 80
	}

	studies := []studyCase{
		{name: "char", cfg: char, inProcess: true, export: func(t *testing.T, cfg StudyConfig) []byte {
			ch, err := cfg.Characterize()
			if err != nil {
				t.Fatal(err)
			}
			return charBytes(t, ch)
		}},
		{name: "safety", cfg: backendSafetyConfig(), export: func(t *testing.T, cfg StudyConfig) []byte {
			s, err := cfg.Safety()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.WriteString(RenderSafety(s))
			for _, p := range taxonomy.Platforms() {
				fmt.Fprintf(&buf, "%s marks: %+v\n", p, s.Marks[p])
			}
			return buf.Bytes()
		}},
		{name: "resilience", cfg: resilience, export: func(t *testing.T, cfg StudyConfig) []byte {
			r, err := cfg.Resilience()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.WriteString(RenderResilience(r))
			for _, p := range taxonomy.Platforms() {
				chrome, err := trace.ExportChrome(r.Traces[p], 2000)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(chrome)
				fmt.Fprintf(&buf, "%s marks: %+v\nfaults: %+v\n", p, r.Marks[p], r.Row(p, true).FaultEvents)
			}
			series, err := MarshalPlatformSeries(r.Series)
			if err != nil {
				t.Fatal(err)
			}
			return append(buf.Bytes(), series...)
		}},
		{name: "obs", cfg: obsCfg, inProcess: true, export: func(t *testing.T, cfg StudyConfig) []byte {
			o, err := cfg.Observe()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range taxonomy.Platforms() {
				if len(o.Series[p]) == 0 {
					t.Fatalf("%s: no observability series collected", p)
				}
			}
			data, err := o.JSON()
			if err != nil {
				t.Fatal(err)
			}
			b := trace.NewChromeBuilder()
			b.AddCounters(o.CounterTracks())
			chrome, err := b.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			return append(data, chrome...)
		}},
		{name: "overload", cfg: overloadTestConfig(), export: func(t *testing.T, cfg StudyConfig) []byte {
			o, err := cfg.Overload()
			if err != nil {
				t.Fatal(err)
			}
			return overloadBytes(t, o)
		}},
		{name: "partition", cfg: partition, export: func(t *testing.T, cfg StudyConfig) []byte {
			s, err := cfg.Partition()
			if err != nil {
				t.Fatal(err)
			}
			data, err := s.JSON()
			if err != nil {
				t.Fatal(err)
			}
			buf := bytes.NewBufferString(RenderPartition(s))
			buf.Write(data)
			for _, p := range taxonomy.Platforms() {
				fmt.Fprintf(buf, "%s marks: %+v\n", p, s.Marks[p])
			}
			return buf.Bytes()
		}},
		{name: "fleet", cfg: fleet, seedSensitive: true, export: func(t *testing.T, cfg StudyConfig) []byte {
			st, err := cfg.FleetScale()
			if err != nil {
				t.Fatal(err)
			}
			b, err := MarshalFleet(st)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{name: "pipeline", cfg: pipeline, export: func(t *testing.T, cfg StudyConfig) []byte {
			s, err := cfg.Pipeline()
			if err != nil {
				t.Fatal(err)
			}
			return pipelineExport(t, s)
		}},
		{name: "latency", cfg: StudyConfig{Seed: 1}, export: func(t *testing.T, cfg StudyConfig) []byte {
			points, err := cfg.Latency([]float64{400, 800, 1200}, latencyOps)
			if err != nil {
				t.Fatal(err)
			}
			return []byte(RenderLatency(points))
		}},
	}

	return studies
}

// Run modes of a conformance row. Every mode but modeSeedPlusOne must export
// the same bytes as modeSequential.
const (
	modeSequential  = "parallel 1"
	modeParallel    = "parallel 4"
	modeExec        = "exec"
	modeSeedPlusOne = "seed+1"
)

// conformanceExport runs st in the given mode and returns its export.
func conformanceExport(t *testing.T, st studyCase, mode string) []byte {
	t.Helper()
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
	return st.export(t, cfg)
}

// conformanceDigests memoizes the SHA-256 of each (study, mode) export, so a
// run is computed once per test binary however many of the tests below
// compare it. Only the digest is kept, so no export outlives its hashing.
var conformanceDigests = map[string][sha256.Size]byte{}

func conformanceDigest(t *testing.T, st studyCase, mode string) [sha256.Size]byte {
	t.Helper()
	key := st.name + "/" + mode
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
	for _, st := range conformanceStudies() {
		if st.name != name {
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
// where an arm computes never changes what it computes. Each study's full
// export — rendered tables, JSON, Chrome traces, marks, metric series — must
// be byte-identical sequentially (Parallel 1), on the goroutine pool
// (Parallel 4) and, for every remotable study, across exec worker
// subprocesses.
func TestStudyConformance(t *testing.T) {
	for _, st := range conformanceStudies() {
		t.Run(st.name, func(t *testing.T) {
			modes := []string{modeParallel}
			if !st.inProcess {
				modes = append(modes, modeExec)
			}
			if st.seedSensitive {
				modes = append(modes, modeSeedPlusOne)
			}
			checkConformance(t, st.name, modes...)
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

// charBytes renders every characterization artifact a byte comparison can
// cover: the full JSON report, the fixed-width tables, and the Chrome trace.
func charBytes(t *testing.T, ch *Characterization) []byte {
	t.Helper()
	var buf bytes.Buffer
	data, err := BuildReport(ch).JSON()
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(data)
	buf.WriteString(RenderTable1(Table1(ch)))
	buf.WriteString(RenderFigure2(Figure2(ch)))
	buf.WriteString(RenderFigure3(Figure3(ch)))
	buf.WriteString(RenderTables67(ch))
	var all []*trace.Trace
	for _, p := range taxonomy.Platforms() {
		all = append(all, ch.Traces[p]...)
	}
	chrome, err := trace.ExportChrome(all, 2000)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(chrome)
	return buf.Bytes()
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
