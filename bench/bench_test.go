package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []metric      `json:"end_to_end"`
	PerLayer  []layerMetric `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestRegistryMatchesBenchmarkJSON checks that BENCHMARK.json describes the
// workloads and metrics the benchmark actually has, unit for unit.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	var gated []metric
	for _, m := range endToEnd {
		if m.gated() {
			gated = append(gated, m)
		}
	}
	if len(f.EndToEnd) != len(gated) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark gates %d", len(f.EndToEnd), len(gated))
	}
	for i := range f.EndToEnd {
		if i < len(gated) && f.EndToEnd[i] != gated[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, f.EndToEnd[i], gated[i])
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(perLayer))
	}
	for i := range f.PerLayer {
		if i < len(perLayer) && f.PerLayer[i] != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, f.PerLayer[i], perLayer[i])
		}
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range f.Workloads {
		check(w.Name)
	}
	for _, m := range endToEnd {
		check(m.Name)
	}
	for _, m := range f.PerLayer {
		check(m.Name)
	}
}

// TestSummarizeMatchesPythonQuantiles pins the quartiles to
// statistics.quantiles(values, n=4), which judges the benchmark's spread.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	got := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	want := summary{Median: 5.5, Q1: 2.75, Q3: 8.25, N: 10}
	if got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
}

// TestCharRepMatchesComposition runs one real char rep and its traced
// composition: both must produce the same report bytes.
func TestCharRepMatchesComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full char studies")
	}
	w, err := lookupWorkload("char")
	if err != nil {
		t.Fatal(err)
	}
	rep := runRep(w, 1)
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			continue
		}
		if v, ok := rep.Metrics[m.Name]; !ok || v <= 0 {
			t.Errorf("rep metric %s = %v, want > 0", m.Name, v)
		}
	}
	rec := newRecorder()
	composed, err := composeChar(rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(composed); got != rep.Digest {
		t.Errorf("composed digest %s, rep digest %s", got, rep.Digest)
	}
	if len(rec.finish()) == 0 || rec.counts["sim.ops"] == 0 {
		t.Error("composition recorded no spans or operations")
	}
}
