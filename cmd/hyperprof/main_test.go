package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"hyperprof/internal/experiments"
)

// modifierArgs sets each study flag to a value no study defaults to, so an
// accepted flag must change the resolved invocation.
var modifierArgs = map[string][]string{
	"seed":          {"-seed", "7"},
	"spanner":       {"-spanner", "5"},
	"bigtable":      {"-bigtable", "5"},
	"bigquery":      {"-bigquery", "5"},
	"clients":       {"-clients", "3"},
	"rate":          {"-rate", "5"},
	"parallel":      {"-parallel", "3"},
	"check-seeds":   {"-check-seeds", "9"},
	"obs":           {"-obs"},
	"obs-interval":  {"-obs-interval", "7ms"},
	"obs-out":       {"-obs-out", "series.json"},
	"burst":         {"-burst"},
	"diurnal":       {"-diurnal"},
	"backend":       {"-backend=exec"},
	"workers":       {"-workers", "2"},
	"unit-timeout":  {"-unit-timeout", "1m"},
	"json":          {"-json"},
	"chrome-trace":  {"-chrome-trace", "trace.json"},
	"top":           {"-top", "5"},
	"pprof":         {"-pprof", "prof"},
	"check":         {"-check"},
	"records":       {"-records", "7"},
	"batches":       {"-batches", "3"},
	"iterations":    {"-iterations", "5"},
	"fleet-servers": {"-fleet-servers", "99"},
	"fleet-users":   {"-fleet-users", "999"},
	"fleet-ops":     {"-fleet-ops", "99"},
	"fleet-heap-mb": {"-fleet-heap-mb", "64"},
	"sketch-err":    {"-sketch-err", "0.05"},
	"extended":      {"-extended"},
}

// withPrereqs returns the args selecting st plus the flags name only takes
// effect together with, transitively.
func withPrereqs(st experiments.Study, name string) []string {
	args := []string{"-study=" + st.Name}
	for need := st.Modifiers[name]; need != ""; need = st.Modifiers[need] {
		args = append(args, modifierArgs[need]...)
	}
	return args
}

func isUsageError(err error) bool {
	return err != nil && !errors.Is(err, flag.ErrHelp)
}

// checkPair checks one (study, flag) pair at the parse level: an accepted
// flag must change the resolved config or output request, and fail alone
// when it needs another flag; a rejected flag must be a usage error.
func checkPair(t *testing.T, st experiments.Study, name string) {
	t.Helper()
	studies := experiments.Studies()
	base := withPrereqs(st, name)
	args := append(slices.Clone(base), modifierArgs[name]...)
	got, err := parseArgs(studies, args)
	needs, accepted := st.Modifiers[name]
	if !accepted {
		if !isUsageError(err) {
			t.Errorf("%v: want a usage error, got %v", args, err)
		}
		return
	}
	if err != nil {
		t.Errorf("%v: %v", args, err)
		return
	}
	want, err := parseArgs(studies, base)
	if err != nil {
		t.Errorf("%v: %v", base, err)
		return
	}
	if reflect.DeepEqual(got.cfg, want.cfg) && got.req == want.req {
		t.Errorf("%v: resolves to the same config and outputs as %v", args, base)
	}
	if needs != "" {
		alone := append([]string{"-study=" + st.Name}, modifierArgs[name]...)
		if _, err := parseArgs(studies, alone); !isUsageError(err) {
			t.Errorf("%v without -%s: want a usage error, got %v", alone, needs, err)
		}
	}
}

// TestStudyFlagPairs checks every (study, flag) pair of the study table.
func TestStudyFlagPairs(t *testing.T) {
	for _, st := range experiments.Studies() {
		for name := range modifierArgs {
			checkPair(t, st, name)
		}
	}
}

func TestCheckOnlyModifiesPartitionAndPipeline(t *testing.T) {
	var takers []string
	for _, st := range experiments.Studies() {
		checkPair(t, st, "check")
		if _, ok := st.Modifiers["check"]; ok {
			takers = append(takers, st.Name)
		}
	}
	if want := []string{"partition", "pipeline"}; !slices.Equal(takers, want) {
		t.Errorf("-check applies to %v, want %v", takers, want)
	}
}

// TestFlagsMatchStudyTable guards against drift between the flag set, the
// study table and the pair table above: every study flag is declared, taken
// by some study and covered by modifierArgs.
func TestFlagsMatchStudyTable(t *testing.T) {
	studies := experiments.Studies()
	fs := newFlagSet(studies, &flagValues{})
	declared := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		declared[f.Name] = true
		if slices.Contains(harnessFlags, f.Name) || f.Name == "worker" {
			return
		}
		if modifierArgs[f.Name] == nil {
			t.Errorf("-%s has no entry in modifierArgs", f.Name)
		}
		if !slices.ContainsFunc(studies, func(st experiments.Study) bool { _, ok := st.Modifiers[f.Name]; return ok }) {
			t.Errorf("-%s is taken by no study", f.Name)
		}
	})
	for _, st := range studies {
		for name, needs := range st.Modifiers {
			if !declared[name] || (needs != "" && !declared[needs]) {
				t.Errorf("%s: modifier -%s (needs %q) is not a declared flag", st.Name, name, needs)
			}
		}
	}
}

// formerlyIgnored were accepted with exit 0 while changing nothing.
var formerlyIgnored = []string{
	"-study=safety -json",
	"-study=char -obs",
	"-study=fleet -chrome-trace x.json",
	"-study=overload -spanner 5 -clients 2",
	"-study=fleet -spanner 7 -clients 3 -rate 5",
	"-study=overload -top 5 -pprof pp",
}

func TestFormerlyIgnoredFlagsAreUsageErrors(t *testing.T) {
	for _, line := range append(formerlyIgnored,
		"-study=safety -workers 2", "-study=safety -unit-timeout 1s", "-study=safety -backend= -workers 2", "-study=resilience -obs=false -obs-out x",
		"-study=char -backend=exec", "-study=obs -backend=exec", "-study=limits -backend=exec", "-study=table8 -backend=exec",
		"-study=char -json -top 3", "-study=nope", "-worker -seed 2", "-study=char extra",
		"-study=char -clients -3", "-study=fleet -sketch-err -0.5", "-study=safety -backend=exec -unit-timeout -1s",
	) {
		if _, err := parseArgs(experiments.Studies(), strings.Fields(line)); !isUsageError(err) {
			t.Errorf("hyperprof %s: want a usage error, got %v", line, err)
		}
	}
}

// cmpInvocations reads the invocation list of scripts/cmp_studies.sh.
func cmpInvocations(t testing.TB) []string {
	data, err := os.ReadFile("../../scripts/cmp_studies.sh")
	if err != nil {
		t.Fatal(err)
	}
	list := regexp.MustCompile(`(?s)invocations=\((.*?)\n\)`).FindSubmatch(data)
	if list == nil {
		t.Fatal("cmp_studies.sh: no invocations=( ... ) list")
	}
	var out []string
	for _, m := range regexp.MustCompile(`"([^"]*)"`).FindAllSubmatch(list[1], -1) {
		out = append(out, string(m[1]))
	}
	return out
}

// TestCmpStudiesCoversTable pins scripts/cmp_studies.sh to the study table:
// every invocation parses, and every study is byte-checked. The package
// comment must list every study too.
func TestCmpStudiesCoversTable(t *testing.T) {
	studies := experiments.Studies()
	covered := map[string]bool{}
	for _, line := range cmpInvocations(t) {
		inv, err := parseArgs(studies, strings.Fields(line))
		if err != nil {
			t.Errorf("cmp_studies.sh: hyperprof %s: %v", line, err)
			continue
		}
		covered[inv.study.Name] = true
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range studies {
		if !covered[st.Name] {
			t.Errorf("cmp_studies.sh runs no -study=%s invocation", st.Name)
		}
		if !bytes.Contains(src, []byte("//\t-study="+st.Name+" ")) {
			t.Errorf("main.go's package comment does not list -study=%s", st.Name)
		}
	}
}

// FuzzStudyArgs fuzzes the parse step alone: it must never panic, resolve
// the same arguments the same way every time, and never run a study.
func FuzzStudyArgs(f *testing.F) {
	for _, line := range append(cmpInvocations(f), formerlyIgnored...) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		studies := experiments.Studies()
		for i := range studies {
			studies[i].Run = func(experiments.StudyConfig, experiments.Request) (*experiments.Result, error) {
				t.Fatalf("parsing %q ran a study", line)
				return nil, nil
			}
		}
		args := strings.Fields(line)
		a, errA := parseArgs(studies, args)
		b, errB := parseArgs(studies, args)
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("%q: errors differ: %v vs %v", line, errA, errB)
		}
		if errA == nil && (a.study.Name != b.study.Name || !reflect.DeepEqual(a.cfg, b.cfg) || a.req != b.req || a.worker != b.worker) {
			t.Fatalf("%q: resolved differently on a second parse", line)
		}
	})
}

// tinyRun runs one study invocation at a test size: the args plus the
// study's tiny sizing, with every output path under dir. It returns stdout
// and the study's verdict.
func tinyRun(t *testing.T, dir string, args ...string) ([]byte, error) {
	t.Helper()
	inv, err := parseArgs(experiments.Studies(), args)
	if err != nil {
		t.Fatal(err)
	}
	tiny := map[string]func(*experiments.StudyConfig){
		"safety":    func(c *experiments.StudyConfig) { c.Check.Seeds = 1 },
		"partition": func(c *experiments.StudyConfig) { c.Check.Seeds = 1 },
		"pipeline": func(c *experiments.StudyConfig) {
			c.Check.Seeds = 1
			c.Pipe = experiments.PipelineConfig{Records: 8, Batches: 2, Iterations: 2}
		},
		"overload": func(c *experiments.StudyConfig) {
			c.Load.Duration = 300 * time.Millisecond
			c.Load.TriggerAt = 100 * time.Millisecond
			c.Load.TriggerDur = 50 * time.Millisecond
			c.Load.SpannerRate, c.Load.BigTableRate, c.Load.BigQueryRate = 200, 300, 20
		},
		"fleet": func(c *experiments.StudyConfig) {
			c.Fleet.Servers, c.Fleet.Users, c.Fleet.Ops = 30, 1000, 300
		},
	}
	if _, ok := inv.study.Modifiers["spanner"]; ok {
		inv.cfg.Ops = experiments.PlatformOps{Spanner: 40, BigTable: 40, BigQuery: 4}
	}
	if shrink := tiny[inv.study.Name]; shrink != nil {
		shrink(&inv.cfg)
	}
	for _, p := range []*string{&inv.req.Chrome, &inv.req.ObsOut, &inv.req.Pprof} {
		if *p != "" {
			*p = filepath.Join(dir, *p)
		}
	}
	var stdout bytes.Buffer
	err = run(inv, &stdout)
	return stdout.Bytes(), err
}

// outputModifiers are the flags that ask for an output file or format.
var outputModifiers = []string{"json", "chrome-trace", "obs-out", "pprof"}

// TestOutputModifiersWriteValidOutput runs every study once at a tiny size
// with each output modifier it accepts, and checks every output parses.
func TestOutputModifiersWriteValidOutput(t *testing.T) {
	for _, st := range experiments.Studies() {
		t.Run(st.Name, func(t *testing.T) {
			args := []string{"-study=" + st.Name}
			var asked []string
			for _, name := range outputModifiers {
				if _, ok := st.Modifiers[name]; ok {
					asked = append(asked, name)
					args = append(args, withPrereqs(st, name)[1:]...)
					args = append(args, modifierArgs[name]...)
				}
			}
			dir := t.TempDir()
			stdout, verdict := tinyRun(t, dir, args...)
			if verdict != nil {
				t.Fatalf("verdict: %v", verdict)
			}
			for _, name := range asked {
				switch name {
				case "json":
					dec := json.NewDecoder(bytes.NewReader(stdout))
					var doc any
					if err := dec.Decode(&doc); err != nil {
						t.Fatalf("-json: stdout does not start with a JSON document: %v", err)
					}
					if rest, _ := io.ReadAll(dec.Buffered()); len(bytes.TrimSpace(rest)) > 0 && !bytes.HasPrefix(bytes.TrimSpace(rest), []byte("Wrote ")) {
						t.Fatalf("-json: stdout continues past the report: %q", rest)
					}
				case "chrome-trace", "obs-out":
					path := filepath.Join(dir, modifierArgs[name][1])
					data, err := os.ReadFile(path)
					if errors.Is(err, os.ErrNotExist) && bytes.Contains(stdout, []byte("skipping "+path)) {
						continue // nothing to write, and the run said so
					}
					if err != nil {
						t.Fatalf("-%s: %v", name, err)
					}
					if !json.Valid(data) {
						t.Fatalf("-%s: not valid JSON (%d bytes)", name, len(data))
					}
				case "pprof":
					matches, _ := filepath.Glob(filepath.Join(dir, "prof-*.pb.gz"))
					if len(matches) != 3 {
						t.Fatalf("-pprof: wrote %v, want one profile per platform", matches)
					}
					for _, m := range matches {
						f, err := os.Open(m)
						if err != nil {
							t.Fatal(err)
						}
						zr, err := gzip.NewReader(f)
						if err == nil {
							_, err = io.ReadAll(zr)
						}
						f.Close()
						if err != nil {
							t.Fatalf("-pprof: %s: %v", m, err)
						}
					}
				}
			}
		})
	}
}

// TestOverloadJSONWritesObsSeries runs -study=overload -json -obs on a small
// load: stdout must stay one valid JSON document and the metric series must
// still reach -obs-out.
func TestOverloadJSONWritesObsSeries(t *testing.T) {
	dir := t.TempDir()
	stdout, err := tinyRun(t, dir, "-study=overload", "-json", "-obs", "-obs-out", "obs-series.json")
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(bytes.TrimSpace(stdout)) {
		t.Fatalf("stdout is not one JSON document:\n%s", stdout)
	}
	series, err := os.ReadFile(filepath.Join(dir, "obs-series.json"))
	if err != nil {
		t.Fatalf("-obs-out not written in JSON mode: %v", err)
	}
	if !json.Valid(series) || !bytes.Contains(series, []byte(`"rpc.calls"`)) {
		t.Fatalf("obs series file holds no rpc series (%d bytes)", len(series))
	}
}

// TestPipelineRateChangesText checks that -rate stands alone for the
// pipeline study: the per-stage breakdown in its text report comes from the
// sampled traces, so the sampling rate changes it.
func TestPipelineRateChangesText(t *testing.T) {
	dir := t.TempDir()
	full, err := tinyRun(t, dir, "-study=pipeline")
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := tinyRun(t, dir, "-study=pipeline", "-rate", "5")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(full, sampled) {
		t.Fatal("-rate 5 left the pipeline text report unchanged")
	}
}

// TestUnsetFlagsKeepStudyDefaults checks that a bare -study=<name> runs the
// study's own default configuration: no flag default overrides it.
func TestUnsetFlagsKeepStudyDefaults(t *testing.T) {
	studies := experiments.Studies()
	for _, st := range studies {
		inv, err := parseArgs(studies, []string{"-study=" + st.Name})
		if err != nil {
			t.Fatal(err)
		}
		if want := st.Default(); !reflect.DeepEqual(inv.cfg, want) {
			t.Errorf("-study=%s resolves to %+v, want its default %+v", st.Name, inv.cfg, want)
		}
	}
}
