// Package bigquery simulates a BigQuery-like distributed analytics query
// engine (§2.2.3): queries execute as a two-stage DAG where stage-1 workers
// scan columnar table partitions from the distributed file system, filter
// and partially aggregate them, then hand results to a distributed shuffle
// tier; stage-2 workers fetch shuffle partitions and run the final
// aggregate/join/sort. The relational compute is real — results are exact
// over materialized key/value columns — while wide payload columns are
// modeled as file bytes only.
package bigquery

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/cluster"
	"hyperprof/internal/columnar"
	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
	"hyperprof/internal/storage"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// Config sizes a BigQuery deployment.
type Config struct {
	// Workers is the number of worker machines.
	Workers int
	// ShuffleServers is the size of the distributed shuffle tier.
	ShuffleServers int
	// Chunkservers backs the DFS the tables live on.
	Chunkservers int
	// FactPartitions, RowsPerPartition and PartitionFileBytes size the fact
	// table. File bytes exceed materialized rows: wide payload columns are
	// modeled in bytes only.
	FactPartitions     int
	RowsPerPartition   int
	PartitionFileBytes int64
	// DimRows sizes the join dimension table.
	DimRows int
	// Groups is the cardinality of the aggregation key.
	Groups int
	// Seed drives all randomness.
	Seed uint64
	// RPC is the client-side resilience policy applied to shuffle RPCs. The
	// zero value is a plain call and changes nothing about fault-free runs.
	RPC netsim.Policy
	// Admission is the server-side overload admission control installed on
	// every shuffle server. The zero value disables it.
	Admission netsim.Admission
	// DisableFailover is the naive arm's knob for partition studies: shuffle
	// puts go only to the slot's home server and stage 2 fails the query
	// instead of speculatively re-executing a lost or unreachable shard. A
	// partition that blocks a shuffle server's links then fails every query
	// touching it, instead of being routed around.
	DisableFailover bool
}

// DefaultConfig returns a laptop-scale deployment preserving the
// paper-relevant behaviour (scans much larger than cache, real shuffles).
func DefaultConfig() Config {
	return Config{
		Workers:            8,
		ShuffleServers:     4,
		Chunkservers:       8,
		FactPartitions:     16,
		RowsPerPartition:   2000,
		PartitionFileBytes: 8 << 20,
		DimRows:            512,
		Groups:             64,
		Seed:               1,
	}
}

// Kind is a query template.
type Kind int

// The three query templates of the default workload.
const (
	// ScanAgg scans the fact table, filters, and aggregates sums by group.
	ScanAgg Kind = iota
	// JoinQuery additionally joins groups against the dimension table and
	// sorts the output; it shuffles row-level data, not just partials.
	JoinQuery
	// Report is a small cached-table query: sort and materialize a
	// dashboard-style result.
	Report
	// PageRank is the iterative in-memory analytics template: a fixed-point
	// rank vector over the fact table's implicit edge graph, recomputed for
	// Query.Iterations rounds. Every round is a full two-stage pass over the
	// shuffle plane with a fresh query id, so put failover, speculative
	// re-execution and the exactly-once merge checker all apply per
	// iteration.
	PageRank
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ScanAgg:
		return "ScanAgg"
	case JoinQuery:
		return "Join"
	case Report:
		return "Report"
	case PageRank:
		return "PageRank"
	}
	return "Unknown"
}

// Query is one request: a template plus a filter threshold.
type Query struct {
	Kind Kind
	// Threshold filters fact rows to val >= Threshold.
	Threshold int64
	// Iterations is the number of rank rounds a PageRank query runs
	// (<= 0 means 3). Ignored by the other kinds.
	Iterations int
}

// Result is a query's real output.
type Result struct {
	// Groups maps group key to SUM(val) over the filtered rows.
	Groups map[int64]int64
	// Labeled maps dimension labels to sums (join queries only).
	Labeled map[string]int64
	// SortedKeys is the group keys in descending-sum order (join/report).
	SortedKeys []int64
	// RowsScanned counts fact rows touched.
	RowsScanned int
}

// Core CPU budgets per query kind (pre-tax), distributed over the kind's
// stage splits; solved so the default mix lands on Figure 4's BigQuery bar.
var coreBudget = map[Kind]time.Duration{
	ScanAgg:   22 * time.Millisecond,
	JoinQuery: 12 * time.Millisecond,
	Report:    12 * time.Millisecond,
	// PageRank's budget is per iteration; the in-memory analytics
	// characterization puts iterative rank kernels on the compute/aggregate
	// side of the taxonomy rather than scan/filter.
	PageRank: 16 * time.Millisecond,
}

// Engine is a running BigQuery deployment.
type Engine struct {
	env     *platform.Env
	cfg     Config
	mgr     *cluster.Manager
	dfs     *storage.DFS
	taxes   platform.TaxTables
	workers []*cluster.Machine
	coord   *cluster.Machine
	shuffle []*shuffleServer
	rng     *stats.RNG
	client  *netsim.Client
	// releaser sends releaseSlot's drops: one attempt each, outside the
	// data path's retry budget and circuit breakers.
	releaser *netsim.Client
	// s1Names and prNames name each worker's stage-1 process in a query and
	// in a PageRank round, built once instead of per spawn.
	s1Names, prNames []string

	fact []*partition
	dim  map[int64]string
	// outDeg is the global out-degree of every graph node (group key) under
	// the implicit edge set row i → row i+1 within each partition, computed
	// once at load time for the PageRank kind.
	outDeg  []int64
	nextQID int
	// slotLoc maps a shuffle slot to the server index its put landed on,
	// which may differ from the home server after a put failover.
	slotLoc map[slotKey]int

	stage1 map[Kind]platform.Recipe // per-partition
	stage2 map[Kind]platform.Recipe // per-query
	planR  platform.Recipe

	// freeGroups recycles aggregates over the engine's key domain (see
	// getGroups), filled lazily and never past maxFreeGroups. sel is the
	// scan's selection vector: the filter and the aggregate that reads it
	// run without parking in between, so one per engine serves every shard.
	freeGroups []*columnar.Groups
	sel        columnar.Bitmap

	// Counters for tests and reports.
	Queries      map[Kind]int
	ShuffleBytes int64
	// RePuts counts shuffle puts redirected off their home server;
	// Speculative counts stage-1 shards re-executed because their shuffle
	// slot was lost or unreachable in stage 2.
	RePuts, Speculative int

	// rec is the opt-in safety recorder (see safety.go); brokenDoubleMerge
	// re-introduces the double-counting bug on the speculative path so tests
	// can prove the exactly-once checker catches it.
	rec               *check.History
	brokenDoubleMerge bool

	// Observability handles (nil when env.Obs is disabled; see enableObs).
	mShuffleBytes *obs.Counter
	mSpeculative  *obs.Counter
	mStage1Active *obs.Gauge
	mStage2Active *obs.Gauge
	mQueryLat     *obs.Histogram
}

type partition struct {
	file string
	keys []int64
	vals []int64
}

type shuffleServer struct {
	machine *cluster.Machine
	srv     *netsim.Server
	slots   map[slotKey]shuffleSlot
	// dropped tombstones released slot keys (see releaseSlot), so a put
	// still in flight when its slot was released cannot land after it.
	dropped map[slotKey]bool
}

type shuffleSlot struct {
	bytes int64
	shard *roundShard
}

// New builds and starts a deployment on the environment.
func New(env *platform.Env, cfg Config) (*Engine, error) {
	if cfg.Workers <= 0 || cfg.FactPartitions <= 0 || cfg.RowsPerPartition <= 0 {
		return nil, fmt.Errorf("bigquery: invalid config %+v", cfg)
	}
	if cfg.ShuffleServers <= 0 || cfg.Chunkservers < 3 {
		return nil, fmt.Errorf("bigquery: need shuffle servers and >= 3 chunkservers")
	}
	if cfg.Groups <= 0 || cfg.DimRows < 0 {
		return nil, fmt.Errorf("bigquery: need Groups > 0 and DimRows >= 0, got %d and %d", cfg.Groups, cfg.DimRows)
	}
	ramR, ssdR, hddR := platform.PaperStorageRatio(taxonomy.BigQuery)
	// Caches are deliberately provisioned far below the scan working set:
	// the paper observes analytics tables are "larger and less cachable"
	// than database working sets (§4.2).
	dataBytes := int64(cfg.FactPartitions) * cfg.PartitionFileBytes
	ram := dataBytes/int64(cfg.Chunkservers)/40 + 256<<10
	caps := storage.Capacities{
		storage.RAM: ram,
		storage.SSD: ram * ssdR / ramR,
		storage.HDD: ram * hddR / ramR,
	}
	spec := cluster.Spec{
		Regions:         1,
		RacksPerRegion:  2,
		MachinesPerRack: (cfg.Workers + cfg.ShuffleServers + 2) / 2,
		CoresPerMachine: 8,
		Storage:         caps,
	}
	mgr, err := cluster.NewManager(env.Net, spec)
	if err != nil {
		return nil, err
	}
	dfs, err := storage.NewDFS(storage.DFSConfig{
		Chunkservers:     cfg.Chunkservers,
		Replication:      3,
		ChunkSize:        4 << 20,
		ServerCapacities: caps,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		env:     env,
		cfg:     cfg,
		mgr:     mgr,
		dfs:     dfs,
		taxes:   platform.TaxTablesFor(taxonomy.BigQuery),
		rng:     stats.NewRNG(cfg.Seed),
		dim:     map[int64]string{},
		slotLoc: map[slotKey]int{},
		Queries: map[Kind]int{},
	}
	// The RPC client seed is derived from the config seed without touching
	// e.rng, so enabling a policy cannot shift the data-generation streams.
	e.client = netsim.NewClient(cfg.RPC, cfg.Seed^0x52504351) // "RPCQ"
	e.releaser = netsim.NewClient(netsim.Policy{}, 0)
	machines := mgr.Machines()
	e.coord = machines[0]
	for i := 0; i < cfg.Workers; i++ {
		e.workers = append(e.workers, machines[(i+1)%len(machines)])
		e.s1Names = append(e.s1Names, "bq-s1-w"+strconv.Itoa(i))
		e.prNames = append(e.prNames, "bq-pr-w"+strconv.Itoa(i))
	}
	for i := 0; i < cfg.ShuffleServers; i++ {
		m := machines[(cfg.Workers+1+i)%len(machines)]
		ss := &shuffleServer{machine: m, slots: map[slotKey]shuffleSlot{}}
		e.startShuffleServer(ss)
		e.shuffle = append(e.shuffle, ss)
	}
	e.registerClassifier()
	e.buildRecipes()
	if err := e.load(); err != nil {
		return nil, err
	}
	e.enableObs(env.Obs)
	return e, nil
}

// enableObs registers the deployment's series with the environment's
// observability plane. A nil registry leaves all handles nil, so every
// record site is a single-branch no-op.
func (e *Engine) enableObs(r *obs.Registry) {
	if r == nil {
		return
	}
	e.dfs.EnableMetrics(r)
	e.mShuffleBytes = r.Counter("bigquery.shuffle.bytes")
	e.mSpeculative = r.Counter("bigquery.speculative")
	e.mStage1Active = r.Gauge("bigquery.stage1.active")
	e.mStage2Active = r.Gauge("bigquery.stage2.active")
	e.mQueryLat = r.Histogram("bigquery.query.latency")
}

func (e *Engine) registerClassifier() {
	c := e.env.Prof.Classifier()
	c.Register("bigquery.filter.", taxonomy.Filter)
	c.Register("bigquery.aggregate.", taxonomy.Aggregate)
	c.Register("bigquery.compute.", taxonomy.Compute)
	c.Register("bigquery.join.", taxonomy.Join)
	c.Register("bigquery.destructure.", taxonomy.Destructure)
	c.Register("bigquery.sort.", taxonomy.Sort)
	c.Register("bigquery.project.", taxonomy.Project)
	c.Register("bigquery.materialize.", taxonomy.Materialize)
	c.Register("bigquery.misc.", taxonomy.MiscCore)
}

func (e *Engine) buildRecipes() {
	cc := platform.PaperMicro(taxonomy.BigQuery, taxonomy.CoreCompute)
	mk := func(budget time.Duration, split platform.Split) platform.Recipe {
		micros := platform.MicroFor(cc, split.Keys()...)
		r := platform.BuildRecipe(budget, split, micros)
		dct, st := platform.TaxBudgets(taxonomy.BigQuery, float64(budget))
		return append(r, e.taxes.TaxRecipe(time.Duration(dct), time.Duration(st))...)
	}
	// Stage fractions of each kind's core budget (see Figure 4 calibration
	// in the package design notes).
	s1frac := map[Kind]float64{ScanAgg: 0.69, JoinQuery: 0.33, Report: 0.48, PageRank: 0.55}
	s1split := map[Kind]platform.Split{
		ScanAgg: {
			"bigquery.filter.Scan": 0.30, "bigquery.compute.ColumnOps": 0.18,
			"bigquery.destructure.FieldAccess": 0.10, "bigquery.project.Columns": 0.05,
			"bigquery.runtime.Glue": 0.06,
		},
		JoinQuery: {
			"bigquery.filter.Scan": 0.12, "bigquery.destructure.FieldAccess": 0.06,
			"bigquery.compute.ColumnOps": 0.10, "bigquery.runtime.Glue": 0.05,
		},
		Report: {
			"bigquery.filter.Scan": 0.08, "bigquery.destructure.FieldAccess": 0.08,
			"bigquery.project.Columns": 0.12, "bigquery.compute.ColumnOps": 0.15,
			"bigquery.runtime.Glue": 0.05,
		},
		// Iterative rank rounds are compute-bound: edge traversal and rank
		// arithmetic dominate, scans are residual (the table is hot after
		// round one).
		PageRank: {
			"bigquery.compute.ColumnOps": 0.28, "bigquery.aggregate.Merge": 0.12,
			"bigquery.destructure.FieldAccess": 0.06, "bigquery.filter.Scan": 0.05,
			"bigquery.runtime.Glue": 0.04,
		},
	}
	s2split := map[Kind]platform.Split{
		ScanAgg: {"bigquery.aggregate.Merge": 0.22, "bigquery.misc.Coord": 0.09},
		JoinQuery: {
			"bigquery.join.HashProbe": 0.24, "bigquery.aggregate.Merge": 0.14,
			"bigquery.sort.OrderBy": 0.12, "bigquery.materialize.Build": 0.07,
			"bigquery.misc.Coord": 0.10,
		},
		Report: {
			"bigquery.sort.OrderBy": 0.25, "bigquery.materialize.Build": 0.15,
			"bigquery.aggregate.Merge": 0.07, "bigquery.misc.Coord": 0.05,
		},
		PageRank: {
			"bigquery.aggregate.Merge": 0.26, "bigquery.compute.ColumnOps": 0.12,
			"bigquery.misc.Coord": 0.07,
		},
	}
	e.stage1 = map[Kind]platform.Recipe{}
	e.stage2 = map[Kind]platform.Recipe{}
	for _, k := range []Kind{ScanAgg, JoinQuery, Report, PageRank} {
		b := coreBudget[k]
		s1b := time.Duration(float64(b) * s1frac[k])
		perPartition := time.Duration(int64(s1b) / int64(e.cfg.FactPartitions))
		e.stage1[k] = mk(perPartition, s1split[k])
		e.stage2[k] = mk(b-s1b, s2split[k])
	}
	e.planR = mk(500*time.Microsecond, platform.Split{"bigquery.misc.Plan": 0.6, "bigquery.runtime.Glue": 0.4})
}

// load generates the fact and dimension tables and writes partition files.
func (e *Engine) load() error {
	rng := e.rng.Fork()
	for pi := 0; pi < e.cfg.FactPartitions; pi++ {
		p := &partition{
			file: fmt.Sprintf("bq/fact/part-%03d", pi),
			keys: make([]int64, e.cfg.RowsPerPartition),
			vals: make([]int64, e.cfg.RowsPerPartition),
		}
		for i := range p.keys {
			p.keys[i] = int64(rng.Intn(e.cfg.Groups))
			p.vals[i] = int64(rng.Intn(1000))
		}
		if _, err := e.dfs.Create(p.file, e.cfg.PartitionFileBytes); err != nil {
			return err
		}
		e.fact = append(e.fact, p)
	}
	for i := 0; i < e.cfg.DimRows; i++ {
		e.dim[int64(i)] = fmt.Sprintf("label-%03d", i%37)
	}
	e.outDeg = make([]int64, e.cfg.Groups)
	for _, p := range e.fact {
		for _, u := range p.keys {
			e.outDeg[u]++
		}
	}
	if _, err := e.dfs.Create("bq/report/small", 512<<10); err != nil {
		return err
	}
	return nil
}

// Machines exposes the fleet for inventory accounting.
func (e *Engine) Machines() []*cluster.Machine { return e.mgr.Machines() }

// DFS exposes the backing file system.
func (e *Engine) DFS() *storage.DFS { return e.dfs }

// Stop shuts down the shuffle tier.
func (e *Engine) Stop() {
	for _, s := range e.shuffle {
		s.srv.Stop()
	}
}

func (e *Engine) handleShufflePut(ss *shuffleServer) netsim.Handler {
	return func(p *sim.Proc, req netsim.Request) netsim.Response {
		sh := req.Payload.(*roundShard)
		p.Use(ss.machine.Node.CPU, 1, time.Duration(float64(req.Bytes)/4e9*float64(time.Second))+20*time.Microsecond)
		// The shuffle tier persists intermediate data: compact partials sit
		// in flash, large row spills go to disk, as production distributed
		// shuffles tier their storage.
		p.Sleep(ss.machine.Store.RawAccess(shuffleTier(req.Bytes), req.Bytes, true))
		if !ss.dropped[sh.key] {
			ss.slots[sh.key] = shuffleSlot{bytes: req.Bytes, shard: sh}
		}
		return netsim.Response{Bytes: 32}
	}
}

// handleShuffleDrop releases a slot and tombstones its key. Dropping a key
// the server does not hold is not an error: the put it releases may never
// have run.
func (e *Engine) handleShuffleDrop(ss *shuffleServer) netsim.Handler {
	return func(p *sim.Proc, req netsim.Request) netsim.Response {
		key := req.Payload.(slotKey)
		p.Use(ss.machine.Node.CPU, 1, 20*time.Microsecond)
		delete(ss.slots, key)
		if ss.dropped == nil {
			ss.dropped = map[slotKey]bool{}
		}
		ss.dropped[key] = true
		return netsim.Response{Bytes: 32}
	}
}

func (e *Engine) handleShuffleGet(ss *shuffleServer) netsim.Handler {
	return func(p *sim.Proc, req netsim.Request) netsim.Response {
		key := req.Payload.(*roundShard).key
		slot, ok := ss.slots[key]
		if !ok {
			return netsim.Response{Err: fmt.Errorf("bigquery: shuffle slot %q missing", key)}
		}
		p.Use(ss.machine.Node.CPU, 1, time.Duration(float64(slot.bytes)/4e9*float64(time.Second))+20*time.Microsecond)
		p.Sleep(ss.machine.Store.RawAccess(shuffleTier(slot.bytes), slot.bytes, false))
		delete(ss.slots, key)
		return netsim.Response{Bytes: slot.bytes, Payload: slot.shard}
	}
}

// shuffleTier picks the storage medium for a shuffle slot: flash for compact
// partial aggregates, disk for wide row spills.
func shuffleTier(bytes int64) storage.Tier {
	if bytes <= 1<<20 {
		return storage.SSD
	}
	return storage.HDD
}

// startShuffleServer (re)creates and starts a shuffle server's RPC endpoint.
// It is used at construction time and by RecoverShuffleServer.
func (e *Engine) startShuffleServer(ss *shuffleServer) {
	ss.srv = netsim.NewServer(ss.machine.Node, 16)
	if e.cfg.Admission != (netsim.Admission{}) {
		// Decorrelate each server's shed stream by its node name, keeping
		// the deployment a pure function of the config seed.
		a := e.cfg.Admission
		h := fnv.New64a()
		h.Write([]byte(ss.machine.Node.Name))
		a.Seed ^= h.Sum64()
		ss.srv.SetAdmission(a)
	}
	// Shuffle handlers are not idempotent — a get consumes its slot — so the
	// server deduplicates retried calls by CallID: a retry whose first attempt
	// actually executed (the reply was lost, not the request) replays the
	// cached response instead of consuming the slot twice.
	ss.srv.SetDedup(true)
	ss.srv.Handle("shuffle.put", e.handleShufflePut(ss))
	ss.srv.Handle("shuffle.get", e.handleShuffleGet(ss))
	ss.srv.Handle("shuffle.drop", e.handleShuffleDrop(ss))
	ss.srv.Start()
}

// shufflePut stores a stage-1 partial in the shuffle tier, trying servers in
// partition-rotation order so a down — or link-blocked — home server
// redirects the slot to the next reachable one (counted in RePuts). The
// landing server is remembered for stage 2. With DisableFailover only the
// home server is tried. A failed put may still have run — on an earlier
// attempt, or after its response was lost — so every server a put failed on
// gets its slot released (see releaseSlot): a slot lives on one server.
// The put carries sh itself, stage-1 shard pi of its round: the server keys
// the slot by sh.key and stage 2's get hands sh back.
func (e *Engine) shufflePut(p *sim.Proc, from *netsim.Node, pi int, sh *roundShard, bytes int64) error {
	key := sh.key
	tries := len(e.shuffle)
	if e.cfg.DisableFailover {
		tries = 1
	}
	var lastErr error
	for off := 0; off < tries; off++ {
		idx := (pi + off) % len(e.shuffle)
		ss := e.shuffle[idx]
		if ss.srv.Stopped() {
			lastErr = fmt.Errorf("%w: %s", netsim.ErrServerDown, ss.machine.Node.Name)
			continue
		}
		resp, _ := e.client.Call(p, from, ss.srv, netsim.Request{
			Method:  "shuffle.put",
			Bytes:   bytes,
			Payload: sh,
		})
		if resp.Err != nil {
			lastErr = resp.Err
			e.releaseSlot(from, idx, key)
			continue
		}
		if off > 0 {
			e.RePuts++
		}
		e.slotLoc[key] = idx
		return nil
	}
	return fmt.Errorf("bigquery: shuffle put %s failed on all servers: %w", key, lastErr)
}

// releaseSlot drops key from shuffle server idx in the background: the put
// that failed there may have stored the slot, which then landed elsewhere or
// nowhere. A drop for a put that never ran costs one round trip. The drop is
// retried until the server answers or goes down (a crash loses its slots
// anyway). What keeps a running server from answering — a partition, a lossy
// link, a full priority queue — passes: every fault window closes, so the
// loop ends.
func (e *Engine) releaseSlot(from *netsim.Node, idx int, key slotKey) {
	ss := e.shuffle[idx]
	e.env.K.Go("bq-shuffle-release", func(p *sim.Proc) {
		backoff := time.Millisecond
		for !ss.srv.Stopped() {
			resp, _ := e.releaser.Call(p, from, ss.srv, netsim.Request{Method: "shuffle.drop", Payload: key, Priority: true})
			if resp.Err == nil || errors.Is(resp.Err, netsim.ErrServerDown) {
				return
			}
			p.Sleep(backoff)
			backoff = min(2*backoff, 100*time.Millisecond)
		}
	})
}

// FailShuffleServer injects a shuffle-server crash: in-flight shuffle RPCs
// fail immediately and the server's slots are lost with it. Queries survive
// through put failover and speculative re-execution.
func (e *Engine) FailShuffleServer(i int) error {
	if i < 0 || i >= len(e.shuffle) {
		return fmt.Errorf("bigquery: shuffle server %d out of range", i)
	}
	e.shuffle[i].srv.Crash()
	return nil
}

// RecoverShuffleServer replaces a crashed shuffle server with a fresh one on
// the same machine. Its previous slots are gone — in-memory shuffle state
// does not survive a crash.
func (e *Engine) RecoverShuffleServer(i int) error {
	if i < 0 || i >= len(e.shuffle) {
		return fmt.Errorf("bigquery: shuffle server %d out of range", i)
	}
	ss := e.shuffle[i]
	if !ss.srv.Stopped() {
		return fmt.Errorf("bigquery: shuffle server %d is already running", i)
	}
	ss.slots, ss.dropped = map[slotKey]shuffleSlot{}, nil
	e.startShuffleServer(ss)
	return nil
}

// ShuffleServerDown reports whether shuffle server i is stopped or crashed.
func (e *Engine) ShuffleServerDown(i int) bool {
	return i >= 0 && i < len(e.shuffle) && e.shuffle[i].srv.Stopped()
}

// SetShuffleSlowdown injects (or clears, with factor <= 1) a straggler on
// shuffle server i.
func (e *Engine) SetShuffleSlowdown(i int, factor float64) error {
	if i < 0 || i >= len(e.shuffle) {
		return fmt.Errorf("bigquery: shuffle server %d out of range", i)
	}
	e.shuffle[i].srv.SetSlowdown(factor)
	return nil
}

// ShuffleNodeName returns the netsim node name hosting shuffle server i, for
// addressing link-level faults. Machines are shared round-robin with workers
// and the coordinator, so a link fault on the name can graze co-located
// roles — like a real top-of-rack cut.
func (e *Engine) ShuffleNodeName(i int) (string, error) {
	if i < 0 || i >= len(e.shuffle) {
		return "", fmt.Errorf("bigquery: shuffle server %d out of range", i)
	}
	return e.shuffle[i].machine.Node.Name, nil
}

// WorkerNodeName returns the netsim node name hosting worker w.
func (e *Engine) WorkerNodeName(w int) (string, error) {
	if w < 0 || w >= len(e.workers) {
		return "", fmt.Errorf("bigquery: worker %d out of range", w)
	}
	return e.workers[w].Node.Name, nil
}

// RPCClient exposes the shuffle RPC client's counters for reports.
func (e *Engine) RPCClient() *netsim.Client { return e.client }

// OverloadStats sums the shuffle servers' admission-control counters:
// requests shed at the hard queue bound, shed adaptively below it, and
// expired by the CoDel queue deadline.
func (e *Engine) OverloadStats() (shed, adaptive, expired int) {
	for _, ss := range e.shuffle {
		shed += ss.srv.Shed
		adaptive += ss.srv.ShedAdaptive
		expired += ss.srv.Expired
	}
	return
}

// Run executes a query end-to-end from the calling (coordinator) process and
// returns its real result.
func (e *Engine) Run(p *sim.Proc, tr *trace.Trace, q Query) (*Result, error) {
	start := p.Now()
	defer func() { e.mQueryLat.RecordSince(start, p.Now()) }()
	qid := e.nextQID
	e.nextQID++
	e.env.ExecRecipe(p, taxonomy.BigQuery, e.coord.Node, tr, e.planR)
	switch q.Kind {
	case ScanAgg, JoinQuery:
		return e.runDistributed(p, tr, q, qid)
	case Report:
		return e.runReport(p, tr, q)
	case PageRank:
		return e.runPageRank(p, tr, q, qid)
	}
	return nil, fmt.Errorf("bigquery: unknown query kind %d", q.Kind)
}

// scanPartitions returns the partitions a query reads. Join queries prune:
// they scan only the first quarter of the fact table (a dimension-selective
// predicate) but spill wide intermediate rows through the shuffle, which is
// what makes them remote-work bound.
func (e *Engine) scanPartitions(q Query) int {
	if q.Kind == JoinQuery {
		n := e.cfg.FactPartitions / 4
		if n < 1 {
			n = 1
		}
		return n
	}
	return e.cfg.FactPartitions
}

// runDistributed executes the two-stage scan/shuffle/reduce plan.
func (e *Engine) runDistributed(p *sim.Proc, tr *trace.Trace, q Query, qid int) (*Result, error) {
	nParts := e.scanPartitions(q)
	merged, err := e.shuffleRound(p, tr, q, qid, nParts, nil)
	if err != nil {
		return nil, err
	}
	if e.rec != nil {
		ref := e.referenceOver(q.Threshold, nParts)
		if !merged.Equal(ref) {
			e.rec.Violate("exact-result", fmt.Sprintf("q%d", qid),
				"query %d (%s) aggregate diverges from the exact reference over %d partitions", qid, q.Kind, nParts)
		}
		e.putGroups(ref)
	}

	groups := merged.Map()
	e.putGroups(merged)
	res := &Result{Groups: groups, RowsScanned: nParts * e.cfg.RowsPerPartition}
	if q.Kind == JoinQuery {
		res.Labeled = columnar.HashJoin(groups, e.dim)
		res.SortedKeys = columnar.SortKeysByValueDesc(groups)
	}
	e.Queries[q.Kind]++
	return res, nil
}

// round is the state of one shuffleRound that its stage-1 processes and its
// reducer share. It is allocated per round and never recycled: a put or a get
// that drains after its call gave up still reads its shard's key from it, so
// a recycled record could store a stale put's slot under a live round's key.
type round struct {
	e      *Engine
	tr     *trace.Trace
	q      Query
	nParts int
	ranks  *columnar.Groups
	bar    *sim.Barrier
	// started counts the stage-1 processes that have begun; each takes it as
	// its worker index. Processes start in spawn order, so worker w runs
	// under the w-th name.
	started int
	// err is the error of the lowest-numbered worker that failed, errWorker.
	err       error
	errWorker int
	shards    []roundShard
}

// roundShard is stage-1 shard pi of a round. It is the payload of the
// shard's shuffle put and get: a pointer, so boxing it allocates nothing.
type roundShard struct {
	key     slotKey
	partial *columnar.Groups
	// contrib counts how many times the shard lands in the merge; the
	// exactly-once checker asserts every shard contributes exactly once,
	// whether it arrived through the shuffle or through speculative
	// re-execution — never both, never twice.
	contrib int
}

// shuffleRound runs one two-stage pass over the first nParts fact partitions
// and returns the merged stage-1 partials. Stage 1 spawns one process per
// worker that owns a partition (worker w owns partitions w, w+Workers, ...);
// each computes its partials and puts them in the shuffle tier. Stage 2
// fetches every slot on one reducer and merges it into a single dense
// accumulator. A shard whose slot was lost (its shuffle server crashed) or is
// unreachable is speculatively re-executed from the durable fact partition
// instead of failing the query. ranks is the rank vector of a PageRank round
// and nil otherwise.
func (e *Engine) shuffleRound(p *sim.Proc, tr *trace.Trace, q Query, qid, nParts int, ranks *columnar.Groups) (*columnar.Groups, error) {
	nW := len(e.workers)
	busy := min(nW, nParts)
	r := &round{e: e, tr: tr, q: q, nParts: nParts, ranks: ranks,
		bar: sim.NewBarrier(e.env.K, busy), shards: make([]roundShard, nParts)}
	for pi := range r.shards {
		r.shards[pi].key = newSlotKey(qid, pi)
	}
	names, kind := e.s1Names, "query"
	if q.Kind == PageRank {
		names, kind = e.prNames, "rank round"
	}
	stage1 := r.stage1
	for w := 0; w < busy; w++ {
		e.env.K.Go(names[w], stage1)
	}
	p.WaitBarrier(r.bar)
	if r.err != nil {
		return nil, r.err
	}

	reducer := e.workers[qid%nW]
	e.mStage2Active.Add(1)
	defer e.mStage2Active.Add(-1)
	merged := e.getGroups()
	for pi := range r.shards {
		sh := &r.shards[pi]
		idx, ok := e.slotLoc[sh.key]
		if !ok {
			idx = pi % len(e.shuffle)
		}
		delete(e.slotLoc, sh.key)
		remStart := p.Now()
		// Stage-2 gets ride the priority lane: they free shuffle slots and
		// complete queries, so under overload they drain the system rather
		// than feeding it — shedding them would only force speculative
		// re-execution, amplifying load.
		resp, _ := e.client.Call(p, reducer.Node, e.shuffle[idx].srv,
			netsim.Request{Method: "shuffle.get", Payload: sh, Priority: true})
		platform.AnnotateRemote(tr, remStart, p.Now())
		var partial *columnar.Groups
		if resp.Err != nil {
			if e.cfg.DisableFailover {
				// Naive arm: no speculative re-execution — a lost or
				// unreachable slot fails the whole query.
				return nil, fmt.Errorf("bigquery: shuffle get %s failed: %w", sh.key, resp.Err)
			}
			e.Speculative++
			e.mSpeculative.Inc()
			var err error
			if partial, err = e.scanPartial(p, tr, reducer, q, pi, ranks); err != nil {
				return nil, err
			}
			if e.brokenDoubleMerge {
				// The reintroduced bug: the speculative result is merged here
				// and again below, double-counting the shard.
				if err := columnar.MergeGroups(merged, partial); err != nil {
					return nil, err
				}
				sh.contrib++
			}
		} else {
			partial = resp.Payload.(*roundShard).partial
		}
		if err := columnar.MergeGroups(merged, partial); err != nil {
			return nil, err
		}
		sh.contrib++
		// The merge was the partial's last read (see putGroups).
		e.putGroups(partial)
	}
	e.env.ExecRecipe(p, taxonomy.BigQuery, reducer.Node, tr, e.stage2[q.Kind])
	if e.rec != nil {
		for pi, sh := range r.shards {
			if sh.contrib != 1 {
				e.rec.Violate("exactly-once", sh.key.String(),
					"%s %d merged stage-1 shard %d into the aggregate %d times, want exactly once", kind, qid, pi, sh.contrib)
			}
		}
	}
	return merged, nil
}

// stage1 is the body of a round's stage-1 processes, spawned as one method
// value per round: worker w computes the partials of shards w, w+Workers, ...
// and puts each in the shuffle tier.
func (r *round) stage1(wp *sim.Proc) {
	e := r.e
	w := r.started
	r.started++
	defer r.bar.Done()
	e.mStage1Active.Add(1)
	defer e.mStage1Active.Add(-1)
	worker := e.workers[w]
	for pi := w; pi < r.nParts; pi += len(e.workers) {
		sh := &r.shards[pi]
		partial, err := e.scanPartial(wp, r.tr, worker, r.q, pi, r.ranks)
		if err != nil {
			r.fail(w, err)
			return
		}
		sh.partial = partial
		// Shuffle the partial to its server; join queries spill wide
		// intermediate rows (a large fraction of the scanned bytes), the
		// others only compact partials. The put fails over across the
		// shuffle tier if the home server is down.
		bytes := int64(partial.Len()) * 16
		if r.q.Kind == JoinQuery {
			bytes = e.cfg.PartitionFileBytes
		}
		remStart := wp.Now()
		err = e.shufflePut(wp, worker.Node, pi, sh, bytes)
		platform.AnnotateRemote(r.tr, remStart, wp.Now())
		if err != nil {
			r.fail(w, err)
			return
		}
		e.ShuffleBytes += bytes
		e.mShuffleBytes.Add(bytes)
	}
}

// fail records worker w's error; the round reports the lowest-numbered
// failed worker's.
func (r *round) fail(w int, err error) {
	if r.err == nil || w < r.errWorker {
		r.err, r.errWorker = err, w
	}
}

// maxFreeGroups caps the engine's free list of aggregates. A ScanAgg query
// holds one partial per shard from its put to its merge, and an open-loop
// burst keeps many queries in that window at once: a fleet run at bench
// size peaks near 600 free partials over 40 partitions, char's near 70 over
// 16. Sixteen queries' worth keeps the list hit nearly every time there,
// while the memory it pins stays bounded under any backlog.
func (e *Engine) maxFreeGroups() int { return 16 * e.cfg.FactPartitions }

// getGroups returns an empty aggregate over the engine's key domain, taken
// from the free list when it holds one.
func (e *Engine) getGroups() *columnar.Groups {
	n := len(e.freeGroups)
	if n == 0 {
		return columnar.NewGroups(e.cfg.Groups)
	}
	g := e.freeGroups[n-1]
	e.freeGroups[n-1] = nil
	e.freeGroups = e.freeGroups[:n-1]
	g.Reset()
	return g
}

// putGroups returns g to the free list, or leaves it to the collector when
// the list is full. The caller must hold g's last reference that anything
// reads. A shard's partial qualifies after the reducer's merge: the stage-1
// worker that made it is done, and the merge consumed its slot. Other
// references may remain: the slot map of a server a failed-over put also
// reached, a settled dedup record, or a get that drained after its deadline.
// Only the landing server's get ever
// reads a partial's contents, and the key it is stored under belongs to a
// round that has finished. The exact-result and exactly-once checks convict
// a partial recycled while still live.
func (e *Engine) putGroups(g *columnar.Groups) {
	if len(e.freeGroups) < e.maxFreeGroups() {
		e.freeGroups = append(e.freeGroups, g)
	}
}

// scanPartial executes one stage-1 shard on machine m: read fact partition pi
// from the DFS, burn the stage-1 recipe, and compute the shard's partial —
// the filtered partial aggregate, or a PageRank round's rank contributions.
// Stage 1 and the reducer's speculative re-execution both run it; the inputs
// are durable even when the shuffled intermediates are not.
func (e *Engine) scanPartial(p *sim.Proc, tr *trace.Trace, m *cluster.Machine, q Query, pi int, ranks *columnar.Groups) (*columnar.Groups, error) {
	part := e.fact[pi]
	ioStart := p.Now()
	d, _, err := e.dfs.Read(part.file, 0, e.cfg.PartitionFileBytes)
	if err != nil {
		return nil, err
	}
	p.Sleep(d)
	platform.AnnotateIO(tr, ioStart, p.Now())
	e.env.ExecRecipe(p, taxonomy.BigQuery, m.Node, tr, e.stage1[q.Kind])
	if q.Kind == PageRank {
		return e.rankPartial(part, ranks, e.getGroups()), nil
	}
	return e.filterAggregate(part, q.Threshold)
}

// filterAggregate is the real vectorized filter and partial aggregation of
// one partition. It does not park, so the engine's one selection vector
// serves every caller.
func (e *Engine) filterAggregate(part *partition, threshold int64) (*columnar.Groups, error) {
	columnar.FilterGE(&e.sel, part.vals, threshold)
	g := e.getGroups()
	if err := columnar.HashAggregate(g, part.keys, part.vals, &e.sel); err != nil {
		return nil, err
	}
	return g, nil
}

// runReport executes the small cached-table query on a single worker.
func (e *Engine) runReport(p *sim.Proc, tr *trace.Trace, q Query) (*Result, error) {
	worker := e.workers[e.nextQID%len(e.workers)]
	ioStart := p.Now()
	d, _, err := e.dfs.Read("bq/report/small", 0, 512<<10)
	if err != nil {
		return nil, err
	}
	p.Sleep(d)
	platform.AnnotateIO(tr, ioStart, p.Now())

	e.env.ExecRecipe(p, taxonomy.BigQuery, worker.Node, tr, e.stage1[Report])
	// Real vectorized compute over the first fact partition (the "small
	// table" proxy).
	part := e.fact[0]
	agg, err := e.filterAggregate(part, q.Threshold)
	if err != nil {
		return nil, err
	}
	e.env.ExecRecipe(p, taxonomy.BigQuery, worker.Node, tr, e.stage2[Report])
	e.Queries[Report]++
	groups := agg.Map()
	e.putGroups(agg)
	return &Result{Groups: groups, SortedKeys: columnar.SortKeysByValueDesc(groups), RowsScanned: len(part.vals)}, nil
}

// Fixed-point rank arithmetic: ranks are scaled by rankScale and damped by
// prDamp/prDampDen. Integer arithmetic keeps per-edge contributions exact, so
// partial merges are associative and commutative and the result is identical
// no matter which server, retry or speculative path delivered each shard.
const (
	rankScale = 1 << 16
	prDamp    = 85
	prDampDen = 100
)

// initialRanks is every node at rankScale. A rank vector holds every node of
// the graph, so all of its keys are present.
func (e *Engine) initialRanks() *columnar.Groups {
	ranks := e.getGroups()
	for g := 0; g < e.cfg.Groups; g++ {
		ranks.Add(int64(g), rankScale)
	}
	return ranks
}

// rankPartial adds one partition's rank contributions into contrib and
// returns it, under the implicit edge set keys[i] → keys[i+1 mod n]: each
// edge carries an equal share of its source's damped rank.
func (e *Engine) rankPartial(part *partition, ranks, contrib *columnar.Groups) *columnar.Groups {
	n := len(part.keys)
	for i, u := range part.keys {
		v := part.keys[(i+1)%n]
		if d := e.outDeg[u]; d > 0 {
			contrib.Add(v, (ranks.Sums[u]*prDamp/prDampDen)/d)
		}
	}
	return contrib
}

// nextRanks folds merged contributions into the next rank vector; every node
// keeps the undamped base share even with no in-edges.
func (e *Engine) nextRanks(merged *columnar.Groups) *columnar.Groups {
	next := e.getGroups()
	base := int64(rankScale) * (prDampDen - prDamp) / prDampDen
	for g := 0; g < e.cfg.Groups; g++ {
		next.Add(int64(g), base+merged.Sums[g])
	}
	return next
}

// advanceRanks returns the rank vector after ranks given the round's merged
// contributions, recycling both: the round that read ranks is over.
func (e *Engine) advanceRanks(ranks, merged *columnar.Groups) *columnar.Groups {
	next := e.nextRanks(merged)
	e.putGroups(merged)
	e.putGroups(ranks)
	return next
}

// referenceRankStep is the exact serial form of one rank iteration, used by
// the per-iteration exact-result check and by ReferencePageRank: every
// partition's contributions summed into one fresh aggregate, with neither
// the free list nor the merge it verifies.
func (e *Engine) referenceRankStep(ranks *columnar.Groups) *columnar.Groups {
	merged := columnar.NewGroups(e.cfg.Groups)
	for _, part := range e.fact {
		e.rankPartial(part, ranks, merged)
	}
	return merged
}

// ReferencePageRank computes the exact rank vector after the given number of
// iterations without simulation, for verifying query results in tests.
func (e *Engine) ReferencePageRank(iterations int) map[int64]int64 {
	if iterations <= 0 {
		iterations = 3
	}
	ranks := e.initialRanks()
	for it := 0; it < iterations; it++ {
		ranks = e.advanceRanks(ranks, e.referenceRankStep(ranks))
	}
	m := ranks.Map()
	e.putGroups(ranks)
	return m
}

// runPageRank executes the iterative rank query: each iteration is a full
// two-stage pass (scan + contribute, shuffle, merge) with its own query id,
// so a shuffle-server crash mid-iteration exercises put failover and
// speculative re-execution, and the exactly-once merge checker guards every
// round independently.
func (e *Engine) runPageRank(p *sim.Proc, tr *trace.Trace, q Query, qid int) (*Result, error) {
	iters := q.Iterations
	if iters <= 0 {
		iters = 3
	}
	ranks := e.initialRanks()
	res := &Result{}
	for it := 0; it < iters; it++ {
		if it > 0 {
			qid = e.nextQID
			e.nextQID++
		}
		merged, err := e.shuffleRound(p, tr, q, qid, e.cfg.FactPartitions, ranks)
		if err != nil {
			return nil, err
		}
		if e.rec != nil {
			ref := e.referenceRankStep(ranks)
			if !merged.Equal(ref) {
				e.rec.Violate("exact-result", fmt.Sprintf("q%d", qid),
					"rank round %d diverges from the exact serial reference", qid)
			}
			e.putGroups(ref)
		}
		res.RowsScanned += e.cfg.FactPartitions * e.cfg.RowsPerPartition
		ranks = e.advanceRanks(ranks, merged)
	}
	res.Groups = ranks.Map()
	e.putGroups(ranks)
	res.SortedKeys = columnar.SortKeysByValueDesc(res.Groups)
	e.Queries[PageRank]++
	return res, nil
}

// slotKey names the shuffle slot of stage-1 shard pi of query qid: the query
// in the high 32 bits, the shard in the low. An integer key costs no string
// on the put/get/drop path; String renders the q<qid>/p<pi> form that
// violation and invariant messages print.
type slotKey uint64

func newSlotKey(qid, pi int) slotKey { return slotKey(uint64(qid)<<32 | uint64(uint32(pi))) }

func (k slotKey) String() string { return fmt.Sprintf("q%d/p%d", uint64(k>>32), uint32(k)) }

// Reference computes the exact expected aggregation over the whole fact
// table without simulation, for verifying query results in tests.
func (e *Engine) Reference(threshold int64) map[int64]int64 {
	return e.referenceOver(threshold, len(e.fact)).Map()
}

// ReferenceOver computes the exact aggregation over the first nParts
// partitions (join queries prune to a quarter of the table).
func (e *Engine) ReferenceOver(threshold int64, nParts int) map[int64]int64 {
	return e.referenceOver(threshold, nParts).Map()
}

// referenceOver is the serial row loop behind the exact-result check and
// the exported references: it shares no code with the vectorized kernels it
// verifies, and its aggregate is fresh rather than taken from the free list,
// so a partial recycled twice cannot also be the reference it is compared
// with.
func (e *Engine) referenceOver(threshold int64, nParts int) *columnar.Groups {
	out := columnar.NewGroups(e.cfg.Groups)
	for pi := 0; pi < nParts && pi < len(e.fact); pi++ {
		part := e.fact[pi]
		for i, v := range part.vals {
			if v >= threshold {
				out.Add(part.keys[i], v)
			}
		}
	}
	return out
}
