package experiments

// This file is the study table: every study the hyperprof CLI runs, declared
// once. Each row names a study, its default configuration, the one function
// that runs it and the flags it accepts. cmd/hyperprof parses its command
// line against the table, TestStudyConformance runs every row, and
// scripts/cmp_studies.sh byte-checks an invocation of each.

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"time"

	"hyperprof/internal/obs"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// Study is one row of the study table.
type Study struct {
	// Name selects the study: hyperprof -study=<Name>.
	Name string
	// Doc is the one-line description the CLI help lists.
	Doc string
	// Default returns the study's default configuration.
	Default func() StudyConfig
	// Run executes the study under cfg and produces the outputs req asks for.
	Run func(cfg StudyConfig, req Request) (*Result, error)
	// Modifiers maps each CLI flag the study accepts, beyond the harness's
	// own (-study, -cpuprofile, -memprofile), to the flag it only takes
	// effect together with ("" when it stands alone).
	Modifiers map[string]string
}

// Request is what one invocation asks of a study beyond its StudyConfig.
type Request struct {
	// JSON selects the canonical JSON report for stdout instead of the text.
	JSON bool
	// Chrome is where the Chrome trace-event document goes ("" = none).
	Chrome string
	// ObsOut is where the metric time series go, when the run records them.
	ObsOut string
	// Pprof is the prefix of per-platform profiles, written as
	// <Pprof>-<platform>.pb.gz ("" = none).
	Pprof string
	// Top lists the N hottest leaf functions per platform (0 = none).
	Top int
	// Extended adds the beyond-the-paper studies of §6.4.
	Extended bool
	// HeapMB fails a run whose live heap afterwards exceeds this many MiB
	// (0 = no ceiling).
	HeapMB int
}

// Result is what one study run produced: the text report, the canonical JSON
// where the study has one, the Chrome trace and the per-platform profiles if
// the request asked for them, the metric time series if the run recorded
// them, and the verdict of the study's own checks.
type Result struct {
	Text     string
	JSON     []byte
	Chrome   *File
	Series   *File
	Profiles []File
	// Verdict is nil when every check the study makes on itself passed.
	Verdict error
}

// File is one output file. Detail qualifies its announcement; a File
// without Data is not written, and Detail says why.
type File struct {
	Path   string
	Data   []byte
	Detail string
}

// Emit renders res exactly as the CLI writes it: the stdout bytes, then the
// files in write order. Stdout carries the JSON report when asJSON is set
// and the text otherwise; each written file is announced after it. The
// announcements of the profiles and the metric series are text-only, so
// `-json -obs` keeps stdout one JSON document; the Chrome announcement
// follows a JSON report too.
func (res *Result) Emit(asJSON bool) ([]byte, []File) {
	var out bytes.Buffer
	if asJSON {
		out.Write(res.JSON)
		out.WriteByte('\n')
	} else {
		out.WriteString(res.Text)
	}
	var files []File
	for _, f := range res.Profiles {
		files = append(files, f)
		if !asJSON {
			fmt.Fprintf(&out, "Wrote pprof profile %s (go tool pprof -top %s)\n", f.Path, f.Path)
		}
	}
	if s := res.Series; s != nil {
		files = append(files, *s)
		if !asJSON {
			fmt.Fprintf(&out, "Wrote %d bytes of metric time series%s to %s\n", len(s.Data), parenthesize(s.Detail), s.Path)
		}
	}
	if c := res.Chrome; c != nil {
		if c.Data == nil {
			fmt.Fprintf(&out, "\n%s — skipping %s\n", c.Detail, c.Path)
		} else {
			files = append(files, *c)
			fmt.Fprintf(&out, "\nWrote %d bytes of Chrome trace events%s to %s (open in Perfetto)\n", len(c.Data), parenthesize(c.Detail), c.Path)
		}
	}
	return out.Bytes(), files
}

func parenthesize(detail string) string {
	if detail == "" {
		return ""
	}
	return " (" + detail + ")"
}

// Studies returns the study table. The first row is the default study.
func Studies() []Study {
	ops := map[string]string{"spanner": "", "bigtable": "", "bigquery": "", "clients": ""}
	// The exec backend, for the studies whose arms condense to plain data.
	exec := map[string]string{"backend": "", "workers": "backend", "unit-timeout": "backend"}
	// join adds the flags every simulation study takes to the given sets.
	join := func(sets ...map[string]string) map[string]string {
		m := map[string]string{"seed": "", "parallel": ""}
		for _, set := range sets {
			maps.Copy(m, set)
		}
		return m
	}
	return []Study{
		{Name: "char", Doc: "characterization: Table 1, Figures 2–6, Tables 6–7",
			Default: DefaultCharStudyConfig, Run: runChar,
			Modifiers: join(ops, map[string]string{"rate": "", "json": "", "chrome-trace": "", "top": "", "pprof": ""})},
		{Name: "safety", Doc: "safety torture: checked histories under injected faults",
			Default: DefaultSafetyStudyConfig, Run: runSafety,
			Modifiers: join(ops, exec, map[string]string{"check-seeds": "", "chrome-trace": ""})},
		{Name: "resilience", Doc: "workloads under injected faults vs fault-free baselines",
			Default: DefaultResilienceStudyConfig, Run: runResilience,
			Modifiers: join(ops, exec, map[string]string{"rate": "", "burst": "", "diurnal": "", "chrome-trace": "",
				"obs": "", "obs-interval": "obs", "obs-out": "obs"})},
		{Name: "obs", Doc: "observability plane: sim-clock metrics and continuous profiling",
			Default: DefaultObsStudyConfig, Run: runObs,
			Modifiers: join(ops, map[string]string{"rate": "chrome-trace", "obs-interval": "", "obs-out": "", "chrome-trace": ""})},
		{Name: "overload", Doc: "naive vs protected arms through a retry-storm trigger",
			Default: DefaultOverloadStudyConfig, Run: runOverload,
			Modifiers: join(exec, map[string]string{"burst": "", "diurnal": "", "json": "",
				"obs": "", "obs-interval": "obs", "obs-out": "obs"})},
		{Name: "partition", Doc: "partition nemesis: split-brain, gray links and clock skew",
			Default: DefaultPartitionStudyConfig, Run: runPartition,
			Modifiers: join(ops, exec, map[string]string{"check-seeds": "", "check": "", "json": "", "chrome-trace": ""})},
		{Name: "fleet", Doc: "fleet-scale characterization with bounded-memory sketches",
			Default: DefaultFleetStudyConfig, Run: runFleet,
			Modifiers: join(exec, map[string]string{"json": "", "fleet-servers": "", "fleet-users": "", "fleet-ops": "",
				"fleet-heap-mb": "", "sketch-err": ""})},
		{Name: "pipeline", Doc: "BigTable ingest → BigQuery analytics → Spanner serving in one simulation",
			Default: DefaultPipelineStudyConfig, Run: runPipeline,
			Modifiers: join(exec, map[string]string{"clients": "", "rate": "", "check-seeds": "", "check": "",
				"records": "", "batches": "", "iterations": "", "json": "", "chrome-trace": "",
				"obs": "chrome-trace", "obs-interval": "obs"})},
		{Name: "limits", Doc: "accelerator limit studies: Figures 9, 10 and 13–15",
			Default: DefaultCharStudyConfig, Run: runLimits,
			Modifiers: map[string]string{"seed": "", "spanner": "", "bigtable": "", "bigquery": "", "extended": ""}},
		{Name: "table8", Doc: "chained-model validation on the simulated SoC: Table 8",
			Default: func() StudyConfig { return StudyConfig{Seed: DefaultTable8Config().Seed} }, Run: runTable8,
			Modifiers: map[string]string{"seed": "", "extended": ""}},
	}
}

func runChar(cfg StudyConfig, req Request) (*Result, error) {
	ch, err := cfg.Characterize()
	if err != nil {
		return nil, err
	}
	res := &Result{Text: charText(ch, req.Top)}
	if res.JSON, err = BuildReport(ch).JSON(); err != nil {
		return nil, err
	}
	if req.Pprof != "" {
		for _, p := range taxonomy.Platforms() {
			data, err := ch.Prof(p).ExportPprof(p)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s-%s.pb.gz", req.Pprof, strings.ToLower(string(p)))
			res.Profiles = append(res.Profiles, File{Path: name, Data: data})
		}
	}
	if req.Chrome != "" {
		res.Chrome, err = chrome(req.Chrome, "", flatten(ch.Traces), nil, nil)
	}
	return res, err
}

// charText renders every §3–§5 artifact, plus the top hottest leaf
// functions per platform.
func charText(ch *Characterization, top int) string {
	var b strings.Builder
	for _, s := range []string{
		RenderTable1(Table1(ch)), RenderTables23(), RenderFigure2(Figure2(ch)),
	} {
		b.WriteString(s + "\n")
	}
	cpu, remote, io := Figure2Overall(ch)
	fmt.Fprintf(&b, "Across all platforms: %.0f%% CPU, %.0f%% remote work, %.0f%% IO (paper: 48/22/30)\n\n",
		cpu*100, remote*100, io*100)
	for _, s := range []string{
		RenderFigure3(Figure3(ch)), RenderFigure4(Figure4(ch)), RenderFigure5(Figure5(ch)),
		RenderFigure6(Figure6(ch)), RenderTables67(ch),
	} {
		b.WriteString(s + "\n")
	}
	for _, p := range taxonomy.Platforms() {
		fmt.Fprintf(&b, "%s: %d traces over a simulated %v; mean %.1f KB storage read per query\n",
			p, len(ch.Traces[p]), ch.Elapsed[p].Round(1e6), ch.QueryBytes[p]/1024)
	}
	if top > 0 {
		b.WriteString("\nHottest leaf functions (GWP view):\n")
		for _, p := range taxonomy.Platforms() {
			fmt.Fprintf(&b, "  %s:\n", p)
			for _, fn := range ch.Prof(p).TopFunctions(p, top) {
				fmt.Fprintf(&b, "    %-34s %-18s %v\n", fn.Function, fn.Category, fn.CPU.Round(1e6))
			}
		}
	}
	return b.String()
}

func runObs(cfg StudyConfig, req Request) (*Result, error) {
	o, err := cfg.Observe()
	if err != nil {
		return nil, err
	}
	res := &Result{Text: RenderObs(o)}
	if res.Series, err = series(req.ObsOut, "", o.Series); err != nil {
		return nil, err
	}
	if req.Chrome != "" {
		res.Chrome, err = chrome(req.Chrome, "with counter tracks", flatten(o.Char.Traces), nil, CounterTracks(o.Series))
	}
	return res, err
}

func runSafety(cfg StudyConfig, req Request) (*Result, error) {
	s, err := cfg.Safety()
	if err != nil {
		return nil, err
	}
	res := &Result{Text: RenderSafety(s), Verdict: s.verdict("safety")}
	if req.Chrome != "" {
		marks := flatten(s.Marks)
		if len(marks) == 0 {
			res.Chrome = &File{Path: req.Chrome, Detail: "No violations, so no trace events to mark"}
			return res, nil
		}
		res.Chrome, err = chrome(req.Chrome, fmt.Sprintf("%d violation marks", len(marks)), nil, marks, nil)
	}
	return res, err
}

func runResilience(cfg StudyConfig, req Request) (*Result, error) {
	r, err := cfg.Resilience()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString(RenderResilience(r))
	for _, p := range taxonomy.Platforms() {
		if row := r.Row(p, true); row != nil && len(row.FaultEvents) > 0 {
			fmt.Fprintf(&b, "%s faults:", p)
			for _, ev := range row.FaultEvents {
				fmt.Fprintf(&b, " [%v %s]", ev.At.Round(time.Millisecond), ev.Label())
			}
			b.WriteString("\n")
		}
	}
	res := &Result{Text: b.String()}
	if cfg.Obs.Enabled {
		if res.Series, err = series(req.ObsOut, "faulted arms", r.Series); err != nil {
			return nil, err
		}
	}
	if req.Chrome != "" {
		marks := flatten(r.Marks)
		detail := fmt.Sprintf("with %d fault marks", len(marks))
		var counters []trace.CounterTrack
		if cfg.Obs.Enabled {
			counters = CounterTracks(r.Series)
			detail += " and counter tracks"
		}
		res.Chrome, err = chrome(req.Chrome, detail, flatten(r.Traces), marks, counters)
	}
	return res, err
}

func runOverload(cfg StudyConfig, req Request) (*Result, error) {
	o, err := cfg.Overload()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString(RenderOverload(o))
	for _, p := range taxonomy.Platforms() {
		if row := o.Row(p, true); row != nil {
			fmt.Fprintf(&b, "%s tenants (protected):", p)
			for _, tn := range row.Tenants {
				fmt.Fprintf(&b, " [%s w%.0f ok=%d thr=%d]", tn.Name, tn.Weight, tn.Successes, tn.Throttled)
			}
			b.WriteString("\n")
		}
	}
	res := &Result{Text: b.String()}
	if res.JSON, err = o.JSON(); err != nil {
		return nil, err
	}
	if cfg.Obs.Enabled {
		res.Series, err = series(req.ObsOut, "protected arms", o.Series)
	}
	return res, err
}

func runPartition(cfg StudyConfig, req Request) (*Result, error) {
	s, err := cfg.Partition()
	if err != nil {
		return nil, err
	}
	res := &Result{Text: RenderPartition(s), Verdict: s.verdict("partition")}
	if res.JSON, err = s.JSON(); err != nil {
		return nil, err
	}
	if req.Chrome != "" {
		marks := flatten(s.Marks)
		res.Chrome, err = chrome(req.Chrome, fmt.Sprintf("%d fault/violation marks", len(marks)), nil, marks, nil)
	}
	return res, err
}

func runPipeline(cfg StudyConfig, req Request) (*Result, error) {
	s, err := cfg.Pipeline()
	if err != nil {
		return nil, err
	}
	res := &Result{Text: RenderPipeline(s), Verdict: s.verdict("pipeline")}
	if res.JSON, err = s.JSON(); err != nil {
		return nil, err
	}
	if req.Chrome != "" {
		data, err := s.Chrome()
		if err != nil {
			return nil, err
		}
		res.Chrome = &File{Path: req.Chrome, Data: data, Detail: fmt.Sprintf(
			"%d end-to-end traces spanning three platform processes, %d marks", len(s.Traces), len(s.Marks))}
	}
	return res, nil
}

func runFleet(cfg StudyConfig, req Request) (*Result, error) {
	st, err := cfg.FleetScale()
	if err != nil {
		return nil, err
	}
	res := &Result{Text: RenderFleet(st)}
	if res.JSON, err = MarshalFleet(st); err != nil {
		return nil, err
	}
	if live := st.Heap.HeapAllocBytes >> 20; req.HeapMB > 0 && live > uint64(req.HeapMB) {
		res.Verdict = fmt.Errorf("fleet heap assertion failed: %d MiB live after run, ceiling %d MiB", live, req.HeapMB)
	}
	return res, nil
}

// runLimits renders the §6 limit studies over a fresh characterization and,
// with req.Extended, the §6.4 future-work sweeps per platform.
func runLimits(cfg StudyConfig, req Request) (*Result, error) {
	ch, err := cfg.Characterize()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	for _, fig := range []func(*Characterization) (string, error){
		rendered(Figure9, RenderFigure9), rendered(Figure10, RenderFigure10), rendered(Figure13, RenderFigure13),
		rendered(Figure14, RenderFigure14), rendered(Figure15, RenderFigure15),
	} {
		s, err := fig(ch)
		if err != nil {
			return nil, err
		}
		b.WriteString(s + "\n")
	}
	if req.Extended {
		b.WriteString("=== Beyond the paper (§6.4 future work) ===\n")
		for _, p := range taxonomy.Platforms() {
			sys, err := ch.DeriveSystem(p)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&b, "Partial synchronization (%s, 8x accelerators):\n", p)
			for _, pt := range PartialSyncSweep(sys, []float64{1, 0.5, 0}) {
				fmt.Fprintf(&b, "  g=%.1f  %.3fx\n", pt.G, pt.Speedup)
			}
			rows, err := ch.MixedPlacementStudy(p)
			if err != nil {
				return nil, err
			}
			b.WriteString(RenderMixedPlacement(p, rows))
			prio, err := ch.AcceleratorPriority(p)
			if err != nil {
				return nil, err
			}
			b.WriteString(RenderPriority(p, prio) + "\n")
		}
	}
	return &Result{Text: b.String()}, nil
}

// rendered pairs a limit-study figure with its renderer.
func rendered[T any](fig func(*Characterization) (T, error), render func(T) string) func(*Characterization) (string, error) {
	return func(ch *Characterization) (string, error) {
		f, err := fig(ch)
		if err != nil {
			return "", err
		}
		return render(f), nil
	}
}

// runTable8 reproduces the Table 8 model validation and, with req.Extended,
// the three-accelerator chain with a real compression stage.
func runTable8(cfg StudyConfig, req Request) (*Result, error) {
	t8cfg := DefaultTable8Config()
	t8cfg.Seed = cfg.Seed
	t8, err := Table8(t8cfg)
	if err != nil {
		return nil, err
	}
	text := RenderTable8(t8)
	if req.Extended {
		r, err := Chain3Experiment(t8cfg.Seed, t8cfg.Messages)
		if err != nil {
			return nil, err
		}
		text += "\n" + RenderChain3(r)
	}
	return &Result{Text: text}, nil
}

// chrome builds a Chrome trace-event document from up to 2000 traces, the
// marks and the counter tracks.
func chrome(path, detail string, traces []*trace.Trace, marks []trace.Mark, counters []trace.CounterTrack) (*File, error) {
	b := trace.NewChromeBuilder()
	b.AddMarks(marks)
	b.AddTraces(traces, 2000)
	b.AddCounters(counters)
	data, err := b.Marshal()
	if err != nil {
		return nil, err
	}
	return &File{Path: path, Data: data, Detail: detail}, nil
}

// series exports per-platform metric time series.
func series(path, detail string, m map[taxonomy.Platform][]obs.Series) (*File, error) {
	data, err := MarshalPlatformSeries(m)
	if err != nil {
		return nil, err
	}
	return &File{Path: path, Data: data, Detail: detail}, nil
}

// flatten concatenates a per-platform map in presentation order.
func flatten[T any](m map[taxonomy.Platform][]T) []T {
	var all []T
	for _, p := range taxonomy.Platforms() {
		all = append(all, m[p]...)
	}
	return all
}
