package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"hyperprof/internal/taxonomy"
)

func TestPartialSyncSweep(t *testing.T) {
	ch := testChar(t)
	sys, err := ch.DeriveSystem(taxonomy.Spanner)
	if err != nil {
		t.Fatal(err)
	}
	gs := []float64{1, 0.75, 0.5, 0.25, 0}
	pts := PartialSyncSweep(sys, gs)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	// Speedup increases monotonically as synchronization relaxes (g falls).
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup < pts[i-1].Speedup-1e-9 {
			t.Fatalf("not monotone: g=%v %.4f -> g=%v %.4f",
				pts[i-1].G, pts[i-1].Speedup, pts[i].G, pts[i].Speedup)
		}
	}
	// Endpoints match the Figure 13 sync/async configurations.
	syncRef := sys.WithUniformSpeedup(Fig13Speedup).Configure(1, nil).Speedup()  // SyncOnChip
	asyncRef := sys.WithUniformSpeedup(Fig13Speedup).Configure(2, nil).Speedup() // AsyncOnChip
	if diff := pts[0].Speedup - syncRef; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("g=1 speedup %.6f != sync config %.6f", pts[0].Speedup, syncRef)
	}
	if diff := pts[4].Speedup - asyncRef; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("g=0 speedup %.6f != async config %.6f", pts[4].Speedup, asyncRef)
	}
}

func TestMixedPlacementStudy(t *testing.T) {
	ch := testChar(t)
	for _, p := range taxonomy.Platforms() {
		rows, err := ch.MixedPlacementStudy(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 5 {
			t.Fatalf("%s: %d rows", p, len(rows))
		}
		for _, r := range rows {
			if r.OneOffChip > r.AllOnChip+1e-9 {
				t.Errorf("%s/%s: off-chip %.4f beats on-chip %.4f", p, r.Component, r.OneOffChip, r.AllOnChip)
			}
			if r.Penalty < 0 {
				t.Errorf("%s/%s: negative penalty", p, r.Component)
			}
		}
	}
	// BigQuery's payloads make any off-chip hop costly; its worst single
	// placement penalty should dwarf Spanner's.
	bq, _ := ch.MixedPlacementStudy(taxonomy.BigQuery)
	sp, _ := ch.MixedPlacementStudy(taxonomy.Spanner)
	worst := func(rows []MixedPlacementRow) float64 {
		w := 0.0
		for _, r := range rows {
			if r.Penalty > w {
				w = r.Penalty
			}
		}
		return w
	}
	if worst(bq) <= worst(sp) {
		t.Errorf("BigQuery worst placement penalty %.3f <= Spanner %.3f", worst(bq), worst(sp))
	}
}

func TestChain3Experiment(t *testing.T) {
	r, err := Chain3Experiment(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio <= 1.2 {
		t.Fatalf("corpus compression ratio %.2f, want > 1.2", r.Ratio)
	}
	if r.DiffFrac > 0.15 {
		t.Fatalf("chain3 model diff %.1f%%", r.DiffFrac*100)
	}
	out := RenderChain3(r)
	if !strings.Contains(out, "compression") || !strings.Contains(out, "Difference") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRenderMixedPlacement(t *testing.T) {
	ch := testChar(t)
	rows, err := ch.MixedPlacementStudy(taxonomy.Spanner)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderMixedPlacement(taxonomy.Spanner, rows)
	if !strings.Contains(out, "penalty") || len(out) < 100 {
		t.Fatalf("render:\n%s", out)
	}
}

func TestBuildReportJSON(t *testing.T) {
	ch := testChar(t)
	r := BuildReport(ch)
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Ratios["Spanner"] != "1:16:164" {
		t.Fatalf("ratio = %q", back.Ratios["Spanner"])
	}
	if len(back.EndToEnd["BigQuery"]) != 5 {
		t.Fatalf("bigquery groups = %d", len(back.EndToEnd["BigQuery"]))
	}
	if back.Microarch["BigQuery"].IPC <= back.Microarch["Spanner"].IPC {
		t.Fatal("IPC ordering lost in report")
	}
	var sum float64
	for _, f := range back.Cycles["BigTable"] {
		sum += f
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("cycle fractions sum to %v", sum)
	}
	if back.Meta.Queries["Spanner"] == 0 || back.Meta.SimulatedTime["Spanner"] == "" {
		t.Fatalf("meta = %+v", back.Meta)
	}
}

func TestAcceleratorPriority(t *testing.T) {
	ch := testChar(t)
	rows, err := ch.AcceleratorPriority(taxonomy.Spanner)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Descending sensitivity; all positive; shares sane.
	for i, r := range rows {
		if i > 0 && r.Sensitivity > rows[i-1].Sensitivity+1e-12 {
			t.Fatal("not sorted by sensitivity")
		}
		if r.Sensitivity < 0 || r.CPUShare <= 0 || r.CPUShare > 1 {
			t.Fatalf("row %+v", r)
		}
	}
	// The largest CPU component should rank near the top (Amdahl).
	if rows[0].CPUShare < 0.05 {
		t.Fatalf("top component has tiny share: %+v", rows[0])
	}
	out := RenderPriority(taxonomy.Spanner, rows)
	if !strings.Contains(out, "priority") {
		t.Fatal("render")
	}
}

func TestChainScaling(t *testing.T) {
	rows := ChainScaling([]int{1, 2, 4, 8, 16, 0})
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// Async bounds chained bounds sync at every length.
		if !(r.Async >= r.Chained-1e-9 && r.Chained >= r.Sync-1e-9) {
			t.Fatalf("ordering at %d stages: %+v", r.Stages, r)
		}
		// Chained improves with more (smaller) pipelined stages.
		if i > 0 && r.Chained < rows[i-1].Chained-1e-9 {
			t.Fatalf("chained degraded with stages: %+v", rows)
		}
	}
	// At 16 stages, sync pays 16 setups+residuals; chained pays one of
	// each. The gap must be substantial (paper: chaining realizes most of
	// the asynchronous benefit).
	last := rows[len(rows)-1]
	if last.Chained < last.Sync*1.5 {
		t.Fatalf("chaining gain too small at 16 stages: %+v", last)
	}
	if last.Chained < 0.95*last.Async {
		t.Fatalf("chained should track async: %+v", last)
	}
}

func TestRenderTables23(t *testing.T) {
	out := RenderTables23()
	for _, want := range []string{"Table 2", "Table 3", "Protobuf", "(De)serialization", "Kernel, syscalls"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestTieringPolicyAblation(t *testing.T) {
	res, err := TieringPolicyAblation(3, 40000)
	if err != nil {
		t.Fatal(err)
	}
	lru := res.RAMHitRatio["LRU"]
	lfu := res.RAMHitRatio["TinyLFU"]
	if lfu <= lru {
		t.Fatalf("TinyLFU hit ratio %.3f <= LRU %.3f", lfu, lru)
	}
	if res.PointReadMean["TinyLFU"] >= res.PointReadMean["LRU"] {
		t.Fatalf("TinyLFU point-read mean %.6f >= LRU %.6f", res.PointReadMean["TinyLFU"], res.PointReadMean["LRU"])
	}
	if _, err := TieringPolicyAblation(3, 0); err == nil {
		t.Fatal("zero accesses accepted")
	}
}
