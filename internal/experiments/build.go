package experiments

import (
	"fmt"
	"slices"
	"strings"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/check"
	"hyperprof/internal/cluster"
	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/storage"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
	"hyperprof/internal/workload"
)

// This file builds the platform stack behind every study arm. A study states
// only what it varies — its platform config edits, its fault targets, its
// driver and its row — and build does the rest the same way for every study:
// the per-platform seed, Spanner's network, the obs plane, the constructor,
// the checked-study wiring, the workload drivers and the storage the
// characterization inventories.

// Seed strides: how far apart one arm's three platform environments sit in
// seed space. Platform i of taxonomy.Platforms() builds on seed + i*stride.
// The characterization-lineage studies (char, resilience, overload, fleet)
// use adjacent seeds. The checked studies (safety, partition, pipeline)
// sweep consecutive base seeds, so they space the platforms 1000 apart,
// which keeps seed j's BigTable stream from being seed j+1's Spanner stream.
// Both stay: every study artifact depends on its stride, and so do the bench
// compositions that replay the studies step by step.
const (
	adjacentSeeds uint64 = 1
	spacedSeeds   uint64 = 1000
)

// platformBuild says how a study arm builds its platform stacks. Studies
// edit the three platform configs (newPlatformBuild starts them at the
// platform defaults); only the built platform's config is used.
type platformBuild struct {
	spanner  spanner.Config
	bigtable bigtable.Config
	bigquery bigquery.Config

	seed   uint64 // the study seed; see adjacentSeeds
	stride uint64
	// traceRate is each stack's trace sampling rate. Studies that read no
	// trace build at 0, which gives each stack no tracer at all.
	traceRate int
	// obs wires the metrics plane into every stack when obs.Enabled.
	obs ObsConfig
	// checked gives each stack a fresh history and invariant registry (see
	// checkStacks).
	checked bool
	// k and tracer, when set, are shared by every stack built: the pipeline
	// runs its three stages on one kernel with one tracer. Otherwise each
	// stack gets a kernel of its own, and a tracer of its own at traceRate.
	k      *sim.Kernel
	tracer *trace.Tracer
}

func newPlatformBuild(seed, stride uint64, traceRate int) platformBuild {
	return platformBuild{
		spanner:   spanner.DefaultConfig(),
		bigtable:  bigtable.DefaultConfig(),
		bigquery:  bigquery.DefaultConfig(),
		seed:      seed,
		stride:    stride,
		traceRate: traceRate,
	}
}

// checkable is what every platform offers a checked study.
type checkable interface {
	SetRecorder(*check.History)
	RegisterInvariants(*check.Registry)
}

// stack is one built platform: its environment, its handle, drivers over its
// calibrated operation mix and, on checked arms, the history and registry it
// reports to. Exactly one of sp, bt and bq is set.
type stack struct {
	p    taxonomy.Platform
	name string // lower-case platform name: process names and labels
	seed uint64 // the environment's seed: study seed plus platform offset
	env  *platform.Env
	sp   *spanner.DB
	bt   *bigtable.DB
	bq   *bigquery.Engine
	// ops is the platform's operation source; closedLoop and openLoop
	// schedule its default mix on the closed- and open-loop drivers.
	ops        *workload.Ops
	closedLoop func(clients, total int, opts workload.ClosedLoopOpts) *workload.Run
	openLoop   func(rate float64, total int, opts workload.OpenLoopOpts) *workload.OpenLoopResult
	plat       checkable
	machines   []*cluster.Machine
	dfs        *storage.DFS // nil for Spanner, whose replicas store locally
	h          *check.History
	reg        *check.Registry
}

// build builds platform p: an environment on the platform's seed (on the
// shared kernel, if any), Spanner's recommended network, the obs plane,
// then the platform itself. The obs plane must come after the network and
// before the constructor (see platform.Env.EnableObs). The caller closes
// the kernel it did not share.
func (b platformBuild) build(p taxonomy.Platform) (*stack, error) {
	i := slices.Index(taxonomy.Platforms(), p)
	if i < 0 {
		return nil, fmt.Errorf("experiments: unknown platform %q", p)
	}
	k := b.k
	if k == nil {
		k = sim.New()
	}
	s := &stack{p: p, name: strings.ToLower(string(p)), seed: b.seed + uint64(i)*b.stride}
	env := platform.NewEnvOn(k, s.seed, b.traceRate)
	s.env = env
	if b.tracer != nil {
		env.Tracer = b.tracer
	}
	if p == taxonomy.Spanner {
		env.Net = netsim.New(k, spanner.RecommendedNetConfig())
	}
	if b.obs.Enabled {
		env.EnableObs(b.obs.registry())
	}
	var err error
	switch p {
	case taxonomy.Spanner:
		var db *spanner.DB
		if db, err = spanner.New(env, b.spanner); err != nil {
			break
		}
		mix := workload.DefaultSpannerMix()
		s.sp, s.plat, s.machines, s.ops = db, db, db.Machines(), workload.SpannerOps(env, db, mix)
		s.closedLoop = func(clients, total int, opts workload.ClosedLoopOpts) *workload.Run {
			return workload.Spanner(env, db, mix, clients, total, opts)
		}
		s.openLoop = func(rate float64, total int, opts workload.OpenLoopOpts) *workload.OpenLoopResult {
			return workload.SpannerOpenLoopWithOpts(env, db, mix, rate, total, opts)
		}
	case taxonomy.BigTable:
		var db *bigtable.DB
		if db, err = bigtable.New(env, b.bigtable); err != nil {
			break
		}
		mix := workload.DefaultBigTableMix()
		s.bt, s.plat, s.machines, s.dfs, s.ops = db, db, db.Machines(), db.DFS(), workload.BigTableOps(env, db, mix)
		s.closedLoop = func(clients, total int, opts workload.ClosedLoopOpts) *workload.Run {
			return workload.BigTable(env, db, mix, clients, total, opts)
		}
		s.openLoop = func(rate float64, total int, opts workload.OpenLoopOpts) *workload.OpenLoopResult {
			return workload.BigTableOpenLoopWithOpts(env, db, mix, rate, total, opts)
		}
	case taxonomy.BigQuery:
		var e *bigquery.Engine
		if e, err = bigquery.New(env, b.bigquery); err != nil {
			break
		}
		mix := workload.DefaultBigQueryMix()
		s.bq, s.plat, s.machines, s.dfs, s.ops = e, e, e.Machines(), e.DFS(), workload.BigQueryOps(env, e, mix)
		s.closedLoop = func(clients, total int, opts workload.ClosedLoopOpts) *workload.Run {
			return workload.BigQuery(env, e, mix, clients, total, opts)
		}
		s.openLoop = func(rate float64, total int, opts workload.OpenLoopOpts) *workload.OpenLoopResult {
			return workload.BigQueryOpenLoopWithOpts(env, e, mix, rate, total, opts)
		}
	}
	if err != nil {
		if b.k == nil {
			k.Close()
		}
		return nil, err
	}
	if b.checked {
		checkStacks(check.NewHistory(k), &check.Registry{}, s)
	}
	if stackBuilt != nil {
		stackBuilt(s)
	}
	return s, nil
}

// stackBuilt, when set, sees every stack build returns. Tests set it to
// check what the stacks of a whole study run carry.
var stackBuilt func(*stack)

// checkStacks records every operation of the stacks into h and, when reg is
// set, registers their standing invariants with it: each platform's own in
// stack order, then the "<platform>-dfs" replica check of each stack backed
// by a distributed file system.
func checkStacks(h *check.History, reg *check.Registry, stacks ...*stack) {
	for _, s := range stacks {
		s.h, s.reg = h, reg
		s.plat.SetRecorder(h)
	}
	if reg == nil {
		return
	}
	for _, s := range stacks {
		s.plat.RegisterInvariants(reg)
	}
	for _, s := range stacks {
		if s.dfs != nil {
			reg.Register(s.name+"-dfs", s.dfs.CheckReplicaConsistency)
		}
	}
}

// stores returns every storage server of the platform, for the storage
// inventory, and the ones its queries read from: Spanner's replicas read
// their own stores, BigTable and BigQuery read the DFS chunkservers.
func (s *stack) stores() (all, queried []*storage.TieredStore) {
	for _, m := range s.machines {
		all = append(all, m.Store)
	}
	if s.dfs == nil {
		return all, all
	}
	return append(all, s.dfs.Servers()...), s.dfs.Servers()
}
