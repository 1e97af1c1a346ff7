package experiments

// This file implements the fleet-scale characterization: all three
// platforms sized to thousands of server machines serving an open-loop load
// attributed to a logical user population in the millions, with every
// unbounded recording surface swapped for its bounded-memory counterpart —
// latency summaries become quantile sketches (stats.Sketch), operation
// histories become reservoir samples (check.NewSampledHistory), and traces
// are sampled hard. The point is the paper's setting: hyperscale profiling
// works because nothing in the measurement path grows with the number of
// operations observed, only with the error bound you accept.
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

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/check"
	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/workload"
)

// fleetTraceRate keeps 1 in 256 traces in fleet mode, bounding tracer
// memory by ops/256 instead of ops.
const fleetTraceRate = 256

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

// fleetUnit is one platform's fleet run.
type fleetUnit struct {
	Platform taxonomy.Platform `json:"platform"`
	Servers  int               `json:"servers"`
	Users    int               `json:"users"`
	Ops      int               `json:"ops"`
	Rate     float64           `json:"rate"`
}

// fleetKind runs platform fleet runs on either backend.
var fleetKind = unitKind[fleetUnit, FleetRow]{name: "fleet/platform", run: runFleetPlatform}

// fleetRecorders builds the latency recorder and operation history for one
// fleet arm: bounded sketch and reservoir in sketch mode, the exact
// defaults otherwise (exact mode exists for error-bound validation at small
// scale; it defeats the purpose at fleet scale).
func fleetRecorders(cfg StudyConfig, env *platform.Env, seed uint64) (stats.Recorder, *check.History) {
	if !cfg.Sketch.Enabled {
		return &stats.Summary{}, check.NewHistory(env.K)
	}
	histCap := cfg.Sketch.HistoryCap
	if histCap <= 0 {
		histCap = defaultFleetHistoryCap
	}
	return stats.NewSketch(cfg.Sketch.RelErr), check.NewSampledHistory(env.K, histCap, seed)
}

// runFleetPlatform sizes one platform to its server share and drives it
// open-loop with bounded-memory recording.
func runFleetPlatform(cfg StudyConfig, u fleetUnit) (FleetRow, error) {
	opts := workload.OpenLoopOpts{Shape: cfg.Fleet.Shape}
	var (
		res  *workload.OpenLoopResult
		hist *check.History
		env  *platform.Env
	)
	switch u.Platform {
	case taxonomy.Spanner:
		env = platform.NewEnv(cfg.Seed, fleetTraceRate)
		env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
		sc := spanner.DefaultConfig()
		sc.Regions = 3
		sc.Groups = max(1, u.Servers/sc.Regions)
		// Rows stay bounded: users are a logical population attributed to
		// arrivals, not materialized state.
		sc.RowsPerGroup = 64
		db, err := spanner.New(env, sc)
		if err != nil {
			return FleetRow{}, err
		}
		var rec stats.Recorder
		rec, hist = fleetRecorders(cfg, env, cfg.Seed)
		db.SetRecorder(hist)
		opts.Latencies = rec
		res = workload.SpannerOpenLoopWithOpts(env, db, workload.DefaultSpannerMix(), u.Rate, u.Ops, opts)
	case taxonomy.BigTable:
		env = platform.NewEnv(cfg.Seed+1, fleetTraceRate)
		bc := bigtable.DefaultConfig()
		bc.TabletServers = max(1, u.Servers*4/5)
		bc.Chunkservers = max(3, u.Servers-bc.TabletServers)
		bc.Tablets = 2 * bc.TabletServers
		bc.RowsPerTablet = 32
		db, err := bigtable.New(env, bc)
		if err != nil {
			return FleetRow{}, err
		}
		var rec stats.Recorder
		rec, hist = fleetRecorders(cfg, env, cfg.Seed+1)
		db.SetRecorder(hist)
		opts.Latencies = rec
		res = workload.BigTableOpenLoopWithOpts(env, db, workload.DefaultBigTableMix(), u.Rate, u.Ops, opts)
	case taxonomy.BigQuery:
		env = platform.NewEnv(cfg.Seed+2, fleetTraceRate)
		qc := bigquery.DefaultConfig()
		qc.Workers = max(1, u.Servers*7/10)
		qc.ShuffleServers = max(1, u.Servers*3/20)
		qc.Chunkservers = max(3, u.Servers-qc.Workers-qc.ShuffleServers)
		// Chunkserver capacity is provisioned proportionally to the fact
		// table (see bigquery.New) and chunk placement is hash-random, so
		// keep partitions proportional to chunkservers and files small
		// (1 MiB, a quarter chunk): the per-server constant slack then
		// dominates the worst hash-placement imbalance.
		qc.FactPartitions = min(max(4, 2*qc.Chunkservers), 256)
		qc.RowsPerPartition = 256
		qc.PartitionFileBytes = 1 << 20
		e, err := bigquery.New(env, qc)
		if err != nil {
			return FleetRow{}, err
		}
		var rec stats.Recorder
		rec, hist = fleetRecorders(cfg, env, cfg.Seed+2)
		e.SetRecorder(hist)
		opts.Latencies = rec
		res = workload.BigQueryOpenLoopWithOpts(env, e, workload.DefaultBigQueryMix(), u.Rate, u.Ops, opts)
	default:
		return FleetRow{}, fmt.Errorf("experiments: unknown platform %q", u.Platform)
	}
	end := env.K.Run()
	if err := res.Err(); err != nil {
		return FleetRow{}, err
	}
	row := FleetRow{
		Platform:       u.Platform,
		Servers:        u.Servers,
		Users:          u.Users,
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
	return row, nil
}

// fleetUnits splits the fleet across platforms: half the servers to
// BigTable (the paper's serving-heavy fleet), a quarter each to Spanner and
// BigQuery; the user population follows the interactive platforms and the
// operation budget follows the characterization mix (analytics queries are
// few but heavy).
func (cfg StudyConfig) fleetUnits() []fleetUnit {
	f := cfg.Fleet
	horizon := f.Duration
	if horizon <= 0 {
		horizon = 2 * time.Second
	}
	bt := f.Servers / 2
	sp := f.Servers / 4
	bq := f.Servers - bt - sp
	units := []fleetUnit{
		{Platform: taxonomy.Spanner, Servers: sp, Users: f.Users * 2 / 5, Ops: f.Ops * 9 / 20},
		{Platform: taxonomy.BigTable, Servers: bt, Users: f.Users / 2, Ops: f.Ops * 9 / 20},
		{Platform: taxonomy.BigQuery, Servers: bq, Users: f.Users / 10, Ops: f.Ops / 10},
	}
	for i := range units {
		if units[i].Ops < 1 {
			units[i].Ops = 1
		}
		units[i].Rate = float64(units[i].Ops) / horizon.Seconds()
	}
	return units
}

// FleetScale runs the fleet-scale characterization. The three platform runs are
// independent simulations, so they fan out over the configured backend and
// parallelism; rows come back in taxonomy.Platforms order regardless of
// completion order, and heap is measured on the coordinator afterwards.
func (cfg StudyConfig) FleetScale() (*FleetStudy, error) {
	f := cfg.Fleet
	if f.Servers < 3 || f.Users <= 0 || f.Ops <= 0 {
		return nil, fmt.Errorf("experiments: invalid fleet config %+v (need ≥3 servers, positive users and ops)", f)
	}
	rows, err := runUnits(cfg, fleetKind, cfg.fleetUnits())
	if err != nil {
		return nil, err
	}
	st := &FleetStudy{Cfg: cfg, Rows: rows}
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
		Seed:      1,
		TraceRate: fleetTraceRate,
		Sketch:    SketchConfig{Enabled: true},
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
