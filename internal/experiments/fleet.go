package experiments

// This file implements the fleet-scale characterization: all three
// platforms sized to thousands of server machines serving an open-loop load
// attributed to a logical user population in the millions, with every
// unbounded recording surface swapped for its bounded-memory counterpart —
// latency summaries become quantile sketches (stats.Sketch), operation
// histories become reservoir samples (check.NewSampledHistory), and no
// traces are recorded at all, since nothing in the study reads one. The
// point is the paper's setting: hyperscale profiling works because nothing
// in the measurement path grows with the number of operations observed,
// only with the error bound you accept.
//
// Fleet rows are pure data, so the study fans out over either backend, and
// the exported bytes are identical sequential, parallel or across worker
// processes. Measured heap statistics are attached to the in-memory
// result only (json:"-"): memory is a property of the run, not of the
// canonical artifact.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/workload"
)

// defaultFleetHistoryCap is the reservoir size for sampled operation
// histories when SketchConfig.HistoryCap is zero.
const defaultFleetHistoryCap = 4096

// FleetRow is one platform's fleet-scale measurement. Every field is plain
// data derived from bounded-memory recorders, so rows serialize
// byte-identically across execution backends.
type FleetRow struct {
	Platform taxonomy.Platform
	// Servers is the simulated server-machine count of this deployment and
	// Users its share of the logical user population.
	Servers int
	Users   int
	// Ops counts completed operations; Errors the failed subset.
	Ops    int
	Errors int
	// Latency quantiles in seconds, from the bounded sketch (within the
	// study's configured relative error of exact).
	P50Seconds  float64
	P99Seconds  float64
	MaxSeconds  float64
	MeanSeconds float64
	// SketchBuckets is the sketch's occupied-bucket count — the witness that
	// latency recording stayed bounded no matter how many ops streamed by.
	SketchBuckets int
	// HistorySeen counts operations the platform recorded; HistoryKept is
	// the reservoir sample retained from them.
	HistorySeen int64
	HistoryKept int
	// VirtualSeconds is the simulated makespan.
	VirtualSeconds float64
}

// FleetHeapStats is the coordinator's measured memory high-water mark after
// the study. It is diagnostic, not canonical: excluded from the study's
// JSON so exported bytes stay identical across backends and machines.
type FleetHeapStats struct {
	HeapAllocBytes  uint64
	TotalAllocBytes uint64
	SysBytes        uint64
}

// FleetStudy is the fleet-scale characterization result.
type FleetStudy struct {
	Cfg  StudyConfig
	Rows []FleetRow
	// Heap is measured on the coordinator after the rows complete; see
	// FleetHeapStats for why it is not part of the canonical form.
	Heap FleetHeapStats `json:"-"`
}

// fleetKind runs platform fleet runs on either backend. A unit names only
// its platform; the run derives the platform's share from cfg.Fleet.
var fleetKind = unitKind[armUnit, armResult[FleetRow]]{
	name: "fleet/platform",
	check: func(cfg StudyConfig, u armUnit) error {
		if f := cfg.Fleet; f.Servers < 3 || f.Users <= 0 || f.Ops <= 0 {
			return fmt.Errorf("experiments: invalid fleet config %+v (need ≥3 servers, positive users and ops)", f)
		}
		return u.within(taxonomy.Platforms(), "")
	},
	run: runFleetPlatform,
}

// fleetRecorders builds the latency recorder and operation history for one
// fleet arm: bounded sketch and reservoir in sketch mode, the exact
// defaults otherwise (exact mode exists for error-bound validation at small
// scale; it defeats the purpose at fleet scale).
func fleetRecorders(cfg StudyConfig, k *sim.Kernel, seed uint64) (stats.Recorder, *check.History) {
	if !cfg.Sketch.Enabled {
		return &stats.Summary{}, check.NewHistory(k)
	}
	histCap := cfg.Sketch.HistoryCap
	if histCap <= 0 {
		histCap = defaultFleetHistoryCap
	}
	return stats.NewSketch(cfg.Sketch.RelErr), check.NewSampledHistory(k, histCap, seed)
}

// runFleetPlatform sizes one platform to its server share and drives it
// open-loop with bounded-memory recording.
func runFleetPlatform(cfg StudyConfig, u armUnit) (armResult[FleetRow], error) {
	servers, users, ops, rate := cfg.Fleet.share(u.Platform)
	b := newPlatformBuild(cfg.Seed, adjacentSeeds, 0)
	sc := &b.spanner
	sc.Regions = 3
	sc.Groups = max(1, servers/sc.Regions)
	// Rows stay bounded: users are a logical population attributed to
	// arrivals, not materialized state.
	sc.RowsPerGroup = 64
	bc := &b.bigtable
	bc.TabletServers = max(1, servers*4/5)
	bc.Chunkservers = max(3, servers-bc.TabletServers)
	bc.Tablets = 2 * bc.TabletServers
	bc.RowsPerTablet = 32
	qc := &b.bigquery
	qc.Workers = max(1, servers*7/10)
	qc.ShuffleServers = max(1, servers*3/20)
	qc.Chunkservers = max(3, servers-qc.Workers-qc.ShuffleServers)
	// Chunkserver capacity is provisioned proportionally to the fact table
	// (see bigquery.New) and chunk placement is hash-random, so keep
	// partitions proportional to chunkservers and files small (1 MiB, a
	// quarter chunk): the per-server constant slack then dominates the worst
	// hash-placement imbalance.
	qc.FactPartitions = min(max(4, 2*qc.Chunkservers), 256)
	qc.RowsPerPartition = 256
	qc.PartitionFileBytes = 1 << 20
	st, err := b.build(u.Platform)
	if err != nil {
		return armResult[FleetRow]{}, err
	}
	env := st.env
	defer env.K.Close()
	rec, hist := fleetRecorders(cfg, env.K, st.seed)
	checkStacks(hist, nil, st)
	res := st.openLoop(rate, ops, workload.OpenLoopOpts{Shape: cfg.Fleet.Shape, Latencies: rec})
	end := env.K.Run()
	if err := res.Err(); err != nil {
		return armResult[FleetRow]{}, err
	}
	row := FleetRow{
		Platform:       u.Platform,
		Servers:        servers,
		Users:          users,
		Ops:            res.Completed,
		Errors:         len(res.Errors),
		P50Seconds:     res.Latencies.Quantile(0.5),
		P99Seconds:     res.Latencies.Quantile(0.99),
		MaxSeconds:     res.Latencies.Max(),
		MeanSeconds:    res.Latencies.Mean(),
		HistorySeen:    hist.Seen(),
		HistoryKept:    hist.Len(),
		VirtualSeconds: end.Seconds(),
	}
	if sk, ok := res.Latencies.(*stats.Sketch); ok {
		row.SketchBuckets = sk.Buckets()
	}
	return armResult[FleetRow]{Row: row}, nil
}

// share is platform p's part of the fleet: half the servers to BigTable
// (the paper's serving-heavy fleet), a quarter each to Spanner and BigQuery;
// the user population follows the interactive platforms and the operation
// budget follows the characterization mix (analytics queries are few but
// heavy). The rate spreads the ops over the arrival horizon.
func (f FleetConfig) share(p taxonomy.Platform) (servers, users, ops int, rate float64) {
	horizon := f.Duration
	if horizon <= 0 {
		horizon = 2 * time.Second
	}
	switch p {
	case taxonomy.Spanner:
		servers, users, ops = f.Servers/4, f.Users*2/5, f.Ops*9/20
	case taxonomy.BigTable:
		servers, users, ops = f.Servers/2, f.Users/2, f.Ops*9/20
	default:
		servers, users, ops = f.Servers-f.Servers/2-f.Servers/4, f.Users/10, f.Ops/10
	}
	ops = max(1, ops)
	return servers, users, ops, float64(ops) / horizon.Seconds()
}

// FleetScale runs the fleet-scale characterization. The three platform runs are
// independent simulations, so they fan out over the configured backend and
// parallelism; rows come back in taxonomy.Platforms order regardless of
// completion order, and heap is measured on the coordinator afterwards.
func (cfg StudyConfig) FleetScale() (*FleetStudy, error) {
	arms, err := runUnits(cfg, fleetKind, platformUnits("", 0))
	if err != nil {
		return nil, err
	}
	st := &FleetStudy{Cfg: cfg}
	for _, a := range arms {
		st.Rows = append(st.Rows, a.Row)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.Heap = FleetHeapStats{HeapAllocBytes: ms.HeapAlloc, TotalAllocBytes: ms.TotalAlloc, SysBytes: ms.Sys}
	return st, nil
}

// DefaultFleetStudyConfig returns the fleet defaults: 2000 servers serving
// one million logical users in sketch mode at the documented 1% error
// bound.
func DefaultFleetStudyConfig() StudyConfig {
	return StudyConfig{
		Seed:   1,
		Sketch: SketchConfig{Enabled: true},
		Fleet: FleetConfig{
			Servers:  2000,
			Users:    1_000_000,
			Ops:      40_000,
			Duration: 2 * time.Second,
		},
	}
}

// MarshalFleet renders the canonical fleet artifact: indented JSON of the
// semantically meaningful inputs (seed, fleet sizing, sketch mode) and the
// rows. Execution knobs — Parallel, Backend, Exec — and measured heap stats
// are excluded by construction: equal seeds and sizing must yield equal
// bytes no matter how or where the study ran.
func MarshalFleet(st *FleetStudy) ([]byte, error) {
	return json.MarshalIndent(struct {
		Seed   uint64
		Sketch SketchConfig
		Fleet  FleetConfig
		Rows   []FleetRow
	}{st.Cfg.Seed, st.Cfg.Sketch, st.Cfg.Fleet, st.Rows}, "", "  ")
}

// RenderFleet renders the human-readable fleet report.
func RenderFleet(st *FleetStudy) string {
	var b strings.Builder
	f := st.Cfg.Fleet
	mode := "exact"
	if st.Cfg.Sketch.Enabled {
		relErr := st.Cfg.Sketch.RelErr
		if relErr <= 0 {
			relErr = stats.DefaultSketchRelErr
		}
		mode = fmt.Sprintf("sketch ±%.0f%%", relErr*100)
	}
	fmt.Fprintf(&b, "Fleet-scale characterization: %d servers, %d logical users (%s recording)\n",
		f.Servers, f.Users, mode)
	fmt.Fprintf(&b, "  %-9s %8s %9s %8s %5s %10s %10s %10s %8s %9s\n",
		"platform", "servers", "users", "ops", "errs", "p50 (ms)", "p99 (ms)", "max (ms)", "buckets", "hist kept")
	for _, r := range st.Rows {
		fmt.Fprintf(&b, "  %-9s %8d %9d %8d %5d %10.2f %10.2f %10.2f %8d %9d\n",
			r.Platform, r.Servers, r.Users, r.Ops, r.Errors,
			r.P50Seconds*1e3, r.P99Seconds*1e3, r.MaxSeconds*1e3, r.SketchBuckets, r.HistoryKept)
	}
	fmt.Fprintf(&b, "  coordinator heap after run: %.1f MiB live / %.1f MiB sys\n",
		float64(st.Heap.HeapAllocBytes)/(1<<20), float64(st.Heap.SysBytes)/(1<<20))
	return b.String()
}
