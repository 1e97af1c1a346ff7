package main

// The traced compositions rebuild a study from the calls its arms make into
// each layer, one span per call, so the per-layer split is measured from the
// benchmark's side of every layer boundary. Each composition must reproduce
// the study's bytes exactly; a mismatch means it no longer does the study's
// work, and the traced run fails.

import (
	"encoding/json"
	"fmt"
	"time"

	"hyperprof"
	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/check"
	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
	"hyperprof/internal/storage"
	"hyperprof/internal/trace"
	"hyperprof/internal/workload"
)

// probe brings up the three platform stacks with their default configs and
// nothing run: the work setup_s times, here under spans.
func probe(rec *recorder, seed uint64) error {
	var err error
	rec.do("bench", "bench.probe", func() {
		var sp, bt, bq *platform.Env
		rec.do("platform", "platform.NewEnv", func() {
			sp, bt, bq = platform.NewEnv(seed, 1), platform.NewEnv(seed+1, 1), platform.NewEnv(seed+2, 1)
		})
		rec.do("netsim", "netsim.New", func() { sp.Net = netsim.New(sp.K, spanner.RecommendedNetConfig()) })
		rec.do("spanner", "spanner.New", func() { _, err = spanner.New(sp, spanner.DefaultConfig()) })
		if err != nil {
			return
		}
		rec.do("bigtable", "bigtable.New", func() { _, err = bigtable.New(bt, bigtable.DefaultConfig()) })
		if err != nil {
			return
		}
		rec.do("bigquery", "bigquery.New", func() { _, err = bigquery.New(bq, bigquery.DefaultConfig()) })
	})
	return err
}

// runKernel drives one platform's kernel to completion under a span and
// counts the simulated time it covered.
func runKernel(rec *recorder, env *platform.Env, p hyperprof.Platform) time.Duration {
	var end time.Duration
	rec.do("sim", "sim.Kernel.Run/"+string(p), func() { end = env.K.Run() })
	rec.add("sim.virtual_s", end.Seconds())
	return end
}

// composeChar is Characterize at Parallel 1 followed by BuildReport and
// Report.JSON.
func composeChar(rec *recorder, seed uint64) ([]byte, error) {
	cfg := charConfig(seed, 1)
	ch := &hyperprof.Characterization{
		Cfg:        cfg,
		Envs:       map[hyperprof.Platform]*platform.Env{},
		Traces:     map[hyperprof.Platform][]*trace.Trace{},
		Inventory:  storage.NewInventory(),
		QueryBytes: map[hyperprof.Platform]float64{},
		Elapsed:    map[hyperprof.Platform]time.Duration{},
		Series:     map[hyperprof.Platform][]obs.Series{},
	}
	var out []byte
	var err error
	rec.do("bench", "bench.compose", func() {
		for _, p := range hyperprof.Platforms() {
			if err = composeCharPlatform(rec, cfg, ch, p); err != nil {
				return
			}
		}
		var r *hyperprof.Report
		rec.do("experiments", "experiments.BuildReport", func() { r = hyperprof.BuildReport(ch) })
		rec.do("experiments", "experiments.Report.JSON", func() { out, err = r.JSON() })
	})
	return out, err
}

// composeCharPlatform is one platform's simulated day of the
// characterization, merged into ch the way Characterize merges it.
func composeCharPlatform(rec *recorder, cfg hyperprof.StudyConfig, ch *hyperprof.Characterization, p hyperprof.Platform) error {
	var (
		env    *platform.Env
		run    *workload.Run
		err    error
		stores []*storage.TieredStore // inventory, in the study's order
		read   []*storage.TieredStore // stores whose reads feed QueryBytes
		ops    int
	)
	newEnv := func(off uint64) {
		rec.do("platform", "platform.NewEnv", func() { env = platform.NewEnv(cfg.Seed+off, cfg.TraceRate) })
	}
	switch p {
	case hyperprof.Spanner:
		newEnv(0)
		rec.do("netsim", "netsim.New", func() { env.Net = netsim.New(env.K, spanner.RecommendedNetConfig()) })
		var db *spanner.DB
		rec.do("spanner", "spanner.New", func() { db, err = spanner.New(env, spanner.DefaultConfig()) })
		if err != nil {
			return err
		}
		rec.do("workload", "workload.Spanner", func() {
			run = workload.Spanner(env, db, workload.DefaultSpannerMix(), cfg.Clients, cfg.Ops.Spanner)
		})
		for _, m := range db.Machines() {
			stores = append(stores, m.Store)
		}
		read, ops = stores, cfg.Ops.Spanner
	case hyperprof.BigTable:
		newEnv(1)
		var db *bigtable.DB
		rec.do("bigtable", "bigtable.New", func() { db, err = bigtable.New(env, bigtable.DefaultConfig()) })
		if err != nil {
			return err
		}
		rec.do("workload", "workload.BigTable", func() {
			run = workload.BigTable(env, db, workload.DefaultBigTableMix(), cfg.Clients, cfg.Ops.BigTable)
		})
		for _, m := range db.Machines() {
			stores = append(stores, m.Store)
		}
		read, ops = db.DFS().Servers(), cfg.Ops.BigTable
		stores = append(stores, read...)
	case hyperprof.BigQuery:
		newEnv(2)
		var e *bigquery.Engine
		rec.do("bigquery", "bigquery.New", func() { e, err = bigquery.New(env, bigquery.DefaultConfig()) })
		if err != nil {
			return err
		}
		rec.do("workload", "workload.BigQuery", func() {
			run = workload.BigQuery(env, e, workload.DefaultBigQueryMix(), cfg.Clients, cfg.Ops.BigQuery)
		})
		for _, m := range e.Machines() {
			stores = append(stores, m.Store)
		}
		read, ops = e.DFS().Servers(), cfg.Ops.BigQuery
		stores = append(stores, read...)
	}
	end := runKernel(rec, env, p)
	if err := run.Err(); err != nil {
		return fmt.Errorf("%s workload: %w", p, err)
	}
	rec.add("sim.ops", float64(run.Completed))
	rec.do("trace", "trace.Tracer.Sampled", func() { ch.Traces[p] = env.Tracer.Sampled() })
	rec.do("storage", "storage.TieredStore.Stats", func() {
		var bytesRead int64
		for _, s := range read {
			for _, t := range storage.Tiers() {
				bytesRead += s.Stats(t).BytesRead
			}
		}
		ch.QueryBytes[p] = float64(bytesRead) / float64(ops)
		for _, s := range stores {
			ch.Inventory.AddStore(p, s)
		}
	})
	ch.Envs[p], ch.Elapsed[p] = env, end
	return nil
}

// fleetHistoryCap is the study's reservoir size: SketchConfig.HistoryCap,
// or 4096 when that is zero.
func fleetHistoryCap(cfg hyperprof.StudyConfig) int {
	if cfg.Sketch.HistoryCap > 0 {
		return cfg.Sketch.HistoryCap
	}
	return 4096
}

// composeFleet is FleetScale at Parallel 1 followed by MarshalFleet.
func composeFleet(rec *recorder, seed uint64) ([]byte, error) {
	cfg := fleetConfig(seed, 1)
	f := cfg.Fleet
	bt, sp := f.Servers/2, f.Servers/4
	units := []hyperprof.FleetRow{
		{Platform: hyperprof.Spanner, Servers: sp, Users: f.Users * 2 / 5, Ops: f.Ops * 9 / 20},
		{Platform: hyperprof.BigTable, Servers: bt, Users: f.Users / 2, Ops: f.Ops * 9 / 20},
		{Platform: hyperprof.BigQuery, Servers: f.Servers - bt - sp, Users: f.Users / 10, Ops: f.Ops / 10},
	}
	st := &hyperprof.FleetStudy{Cfg: cfg}
	var out []byte
	var err error
	rec.do("bench", "bench.compose", func() {
		for _, u := range units {
			u.Ops = max(1, u.Ops)
			var row hyperprof.FleetRow
			if row, err = composeFleetPlatform(rec, cfg, u, float64(u.Ops)/f.Duration.Seconds()); err != nil {
				return
			}
			st.Rows = append(st.Rows, row)
		}
		rec.do("experiments", "experiments.MarshalFleet", func() { out, err = hyperprof.MarshalFleet(st) })
	})
	return out, err
}

// composeFleetPlatform is one platform's fleet run: u carries its platform,
// servers, users and operation budget.
func composeFleetPlatform(rec *recorder, cfg hyperprof.StudyConfig, u hyperprof.FleetRow, rate float64) (hyperprof.FleetRow, error) {
	var (
		env  *platform.Env
		res  *workload.OpenLoopResult
		hist *check.History
		err  error
	)
	opts := workload.OpenLoopOpts{Shape: cfg.Fleet.Shape}
	newEnv := func(off uint64) {
		rec.do("platform", "platform.NewEnv", func() { env = platform.NewEnv(cfg.Seed+off, cfg.TraceRate) })
	}
	recorders := func(off uint64) {
		rec.do("stats", "stats.NewSketch", func() { opts.Latencies = stats.NewSketch(cfg.Sketch.RelErr) })
		rec.do("check", "check.NewSampledHistory", func() {
			hist = check.NewSampledHistory(env.K, fleetHistoryCap(cfg), cfg.Seed+off)
		})
	}
	switch u.Platform {
	case hyperprof.Spanner:
		newEnv(0)
		rec.do("netsim", "netsim.New", func() { env.Net = netsim.New(env.K, spanner.RecommendedNetConfig()) })
		sc := spanner.DefaultConfig()
		sc.Regions = 3
		sc.Groups = max(1, u.Servers/sc.Regions)
		sc.RowsPerGroup = 64
		var db *spanner.DB
		rec.do("spanner", "spanner.New", func() { db, err = spanner.New(env, sc) })
		if err != nil {
			return u, err
		}
		recorders(0)
		db.SetRecorder(hist)
		rec.do("workload", "workload.SpannerOpenLoopWithOpts", func() {
			res = workload.SpannerOpenLoopWithOpts(env, db, workload.DefaultSpannerMix(), rate, u.Ops, opts)
		})
	case hyperprof.BigTable:
		newEnv(1)
		bc := bigtable.DefaultConfig()
		bc.TabletServers = max(1, u.Servers*4/5)
		bc.Chunkservers = max(3, u.Servers-bc.TabletServers)
		bc.Tablets = 2 * bc.TabletServers
		bc.RowsPerTablet = 32
		var db *bigtable.DB
		rec.do("bigtable", "bigtable.New", func() { db, err = bigtable.New(env, bc) })
		if err != nil {
			return u, err
		}
		recorders(1)
		db.SetRecorder(hist)
		rec.do("workload", "workload.BigTableOpenLoopWithOpts", func() {
			res = workload.BigTableOpenLoopWithOpts(env, db, workload.DefaultBigTableMix(), rate, u.Ops, opts)
		})
	case hyperprof.BigQuery:
		newEnv(2)
		qc := bigquery.DefaultConfig()
		qc.Workers = max(1, u.Servers*7/10)
		qc.ShuffleServers = max(1, u.Servers*3/20)
		qc.Chunkservers = max(3, u.Servers-qc.Workers-qc.ShuffleServers)
		qc.FactPartitions = min(max(4, 2*qc.Chunkservers), 256)
		qc.RowsPerPartition = 256
		qc.PartitionFileBytes = 1 << 20
		var e *bigquery.Engine
		rec.do("bigquery", "bigquery.New", func() { e, err = bigquery.New(env, qc) })
		if err != nil {
			return u, err
		}
		recorders(2)
		e.SetRecorder(hist)
		rec.do("workload", "workload.BigQueryOpenLoopWithOpts", func() {
			res = workload.BigQueryOpenLoopWithOpts(env, e, workload.DefaultBigQueryMix(), rate, u.Ops, opts)
		})
	}
	end := runKernel(rec, env, u.Platform)
	if err := res.Err(); err != nil {
		return u, err
	}
	rec.add("sim.ops", float64(res.Completed))
	row := u
	rec.do("stats", "stats.Recorder.Quantile", func() {
		row.Ops, row.Errors = res.Completed, len(res.Errors)
		row.P50Seconds, row.P99Seconds = res.Latencies.Quantile(0.5), res.Latencies.Quantile(0.99)
		row.MaxSeconds, row.MeanSeconds = res.Latencies.Max(), res.Latencies.Mean()
		row.HistorySeen, row.HistoryKept = hist.Seen(), hist.Len()
		row.VirtualSeconds = end.Seconds()
		if sk, ok := res.Latencies.(*stats.Sketch); ok {
			row.SketchBuckets = sk.Buckets()
		}
	})
	return row, nil
}

// safetySalt seeds the safety study's torture client RNG ("SAFE").
const safetySalt = 0x53414645

// composeSafety is the safety study's fault-free BigTable calibration arm:
// closed-loop torture clients on hot rows with an exact history, then the
// three checkers. It is the one arm buildable without the study's
// unexported RPC policies.
func composeSafety(rec *recorder, seed uint64) ([]byte, error) {
	cfg := safetyConfig(seed, 1)
	var out []byte
	var err error
	rec.do("bench", "bench.compose", func() {
		var env *platform.Env
		rec.do("platform", "platform.NewEnv", func() { env = platform.NewEnv(seed+1000, 1) })
		bcfg := bigtable.DefaultConfig()
		var db *bigtable.DB
		rec.do("bigtable", "bigtable.New", func() { db, err = bigtable.New(env, bcfg) })
		if err != nil {
			return
		}
		h := check.NewHistory(env.K)
		db.SetRecorder(h)
		reg := &check.Registry{}
		rec.do("check", "check.Registry.Register", func() {
			db.RegisterInvariants(reg)
			reg.Register("bigtable-dfs", db.DFS().CheckReplicaConsistency)
		})
		var ops, errs int
		var elapsed time.Duration
		rec.do("workload", "bench.tortureClients", func() {
			clients := cfg.Clients
			per := max(1, cfg.Ops.BigTable/clients)
			root := stats.NewRNG(seed ^ safetySalt)
			bar := sim.NewBarrier(env.K, clients)
			for c := 0; c < clients; c++ {
				rng := root.Fork()
				env.K.Go(fmt.Sprintf("bigtable-torture-c%d", c), func(p *sim.Proc) {
					defer bar.Done()
					for i := 0; i < per; i++ {
						ops++
						t, r := rng.Intn(bcfg.Tablets), rng.Intn(cfg.Check.HotRows)
						var err error
						if rng.Bool(0.5) {
							_, err = db.Get(p, nil, t, r)
						} else {
							err = db.Put(p, nil, t, r, []byte(fmt.Sprintf("s%d/c%d/op%d", seed, c, i)))
						}
						if err != nil {
							errs++
						}
					}
				})
			}
			env.K.Go("bigtable-measure", func(p *sim.Proc) {
				p.WaitBarrier(bar)
				elapsed = p.Now()
			})
		})
		runKernel(rec, env, hyperprof.BigTable)
		rec.add("sim.ops", float64(ops))
		rec.add("check.history_ops", float64(h.Len()))
		var vs []check.Violation
		rec.do("check", "check.CheckLinearizability", func() { vs = append(vs, h.CheckLinearizability()...) })
		rec.do("check", "check.CheckExternalConsistency", func() { vs = append(vs, h.CheckExternalConsistency()...) })
		rec.do("check", "check.Registry.Check", func() {
			vs = append(vs, h.Structural()...)
			vs = append(vs, reg.Check(env.K.Now())...)
		})
		out, err = marshalRow(hyperprof.SafetyRow{
			Platform: hyperprof.BigTable, Seed: seed, Ops: ops, Errors: errs,
			Elapsed: elapsed, Violations: len(vs),
		})
	})
	return out, err
}

func marshalRow(row hyperprof.SafetyRow) ([]byte, error) { return json.Marshal(row) }
