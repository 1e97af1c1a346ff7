// Package spanner simulates a Spanner-like globally distributed,
// synchronously replicated SQL database (§2.2.1): tablet groups replicated
// across regions, a Paxos-style commit protocol (leader log append, parallel
// follower replication, majority acknowledgment), strong reads that confirm
// leadership with a quorum round, SQL-ish scans, and background compaction.
// Row data is real — reads return the bytes writes stored — while CPU costs
// come from the calibrated recipes in internal/platform.
package spanner

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/cluster"
	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
	"hyperprof/internal/storage"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// Config sizes a Spanner deployment.
type Config struct {
	// Groups is the number of Paxos tablet groups.
	Groups int
	// Regions is the replication span; each group has one replica per
	// region and commits wait for a majority.
	Regions int
	// RowsPerGroup and RowBytes size the dataset.
	RowsPerGroup int
	RowBytes     int64
	// StrongReadFrac is the fraction of reads that confirm a quorum lease.
	StrongReadFrac float64
	// CompactionEvery triggers a group compaction after this many commits.
	CompactionEvery int
	// QueryScanRows is the number of rows a SQL query scans.
	QueryScanRows int
	// Seed drives all randomness in the deployment.
	Seed uint64
	// RPC is the client-side resilience policy applied to consensus RPCs
	// (replication and lease rounds). The zero value is a plain call with no
	// retries and changes nothing about fault-free runs.
	RPC netsim.Policy
	// Admission is the server-side overload admission control installed on
	// every replica RPC server (bounded queue, CoDel expiry, adaptive shed).
	// The zero value disables it and changes nothing about existing runs.
	Admission netsim.Admission
	// ClockEps is each replica clock's TrueTime-style uncertainty bound.
	// Commits mint their timestamp from the leader's (possibly skewed) local
	// clock and wait the bound out before acknowledging — commit wait, the
	// mechanism that buys external consistency. Zero keeps perfect clocks and
	// skips the wait, leaving existing runs untouched.
	ClockEps time.Duration
	// DisableCommitWait is a broken-knob fixture: commits are still stamped
	// from the skewed local clock but acknowledged without waiting out the
	// uncertainty bound. Under injected clock skew the external-consistency
	// checker must flag the resulting timestamp inversions.
	DisableCommitWait bool
	// PartitionRecovery enables partition-aware leadership: a leader cut off
	// from a quorum of its group steps down and the election runs over the
	// majority-connected component, restoring availability without ever
	// committing on the minority side. Off, a partitioned leader just keeps
	// failing its replication rounds — safe but unavailable.
	PartitionRecovery bool
}

// DefaultConfig returns a laptop-scale deployment that preserves the
// paper-relevant behaviour: caches smaller than the working set, majority
// commit across regions, Zipf-skewed access.
func DefaultConfig() Config {
	return Config{
		Groups:          9,
		Regions:         3,
		RowsPerGroup:    4000,
		RowBytes:        1024,
		StrongReadFrac:  0.15,
		CompactionEvery: 10,
		QueryScanRows:   200,
		Seed:            1,
	}
}

// Core-compute CPU budgets per operation (pre-tax), solved so the aggregate
// core split under the default workload mix lands on Figure 4's Spanner bar.
const (
	readCoreBudget       = 605 * time.Microsecond
	writeCoreBudget      = 1170 * time.Microsecond
	queryCoreBudget      = 1400 * time.Microsecond
	compactionCoreBudget = 3700 * time.Microsecond
	followerConsensus    = 117 * time.Microsecond
	leaseCheckBudget     = 50 * time.Microsecond
)

// DB is a running Spanner deployment.
type DB struct {
	env    *platform.Env
	cfg    Config
	mgr    *cluster.Manager
	taxes  platform.TaxTables
	groups []*group
	rng    *stats.RNG
	zipf   *stats.Zipf
	client *netsim.Client

	// rec, when non-nil, records every Read/Commit into an operation history
	// for the safety checker (see safety.go).
	rec *check.History
	// brokenElectAnyReplica is a test-only fault: elections pick the first
	// live replica with no up-to-dateness or majority requirement,
	// reintroducing the unsafe election the checker exists to catch.
	brokenElectAnyReplica bool

	readRecipe     platform.Recipe
	writeRecipe    platform.Recipe
	queryRecipe    platform.Recipe
	compactRecipe  platform.Recipe
	followerRecipe platform.Recipe
	leaseRecipe    platform.Recipe

	// Counters for tests and reports.
	Reads, Writes, Queries, Compactions, Elections int

	// Observability handles (nil when env.Obs is disabled; see enableObs).
	mConsensusRounds *obs.Counter
	mElections       *obs.Counter
	mCompactions     *obs.Counter
	mReadLat         *obs.Histogram
	mCommitLat       *obs.Histogram
}

type group struct {
	id       int
	replicas []*replica // one per region
	leader   int        // index of the current leader replica
	term     int        // bumped on every election
	commits  int
	// committed is the length of the majority-acknowledged log prefix. It is
	// monotone by construction (only ever raised, on the commit path) and is
	// what the election-safety and committed-prefix invariants are checked
	// against.
	committed int
	// lastTS is the group's commit-timestamp high-water mark, bumped at mint
	// time (not at ack: an indeterminate commit may still replicate later and
	// its successor must not reuse the timestamp), keeping timestamps
	// strictly monotone per group even under backwards clock skew.
	lastTS time.Duration
}

func (g *group) leaderRep() *replica { return g.replicas[g.leader] }

// logEntry is one replicated write. The term stamps which leadership wrote
// it, so elections can order logs by recency (Raft's up-to-date rule) and the
// invariant checker can tell a stale divergent suffix from a committed entry.
type logEntry struct {
	key   uint64 // rowID
	value []byte
	term  int
	// ts is the commit timestamp minted from the leader's local clock when
	// the entry was created; it rides replication so a later leader serves
	// the same timestamps the original commit acknowledged.
	ts time.Duration
}

type replica struct {
	machine *cluster.Machine
	srv     *netsim.Server
	region  int
	// log is the replica's replicated write log; rows is its applied state
	// (bootstrap rows are virtual: see bootstrapValue). Entries are applied
	// to rows strictly at commit, in log order: applied counts the applied
	// prefix and never exceeds the group's commit index. Applying at append
	// time would let an uncommitted entry leak into reads and then vanish
	// across a failover — a dirty read.
	log     []logEntry
	rows    map[uint64][]byte // by rowID
	applied int
	// clock is the replica's local wall clock: true time plus whatever skew
	// the nemesis injected, known only up to the config's uncertainty bound.
	clock *sim.Clock
}

// applyUpTo applies the replica's log prefix [applied, n) to its row state,
// in log order. n is clamped to the log length; applied never regresses.
func applyUpTo(rep *replica, n int) {
	if n > len(rep.log) {
		n = len(rep.log)
	}
	for i := rep.applied; i < n; i++ {
		e := rep.log[i]
		rep.rows[e.key] = e.value
	}
	if n > rep.applied {
		rep.applied = n
	}
}

// New builds and starts a deployment on the environment. The environment's
// network should use metro-scale cross-region RTTs (see RecommendedNetConfig)
// for paper-shaped commit latencies.
func New(env *platform.Env, cfg Config) (*DB, error) {
	if cfg.Groups <= 0 || cfg.Regions < 3 || cfg.RowsPerGroup <= 0 || uint64(cfg.RowsPerGroup) > math.MaxUint32 || cfg.RowBytes < 0 {
		return nil, fmt.Errorf("spanner: invalid config %+v", cfg)
	}
	ramR, ssdR, hddR := platform.PaperStorageRatio(taxonomy.Spanner)
	// Provision RAM so roughly 3% of a machine's resident rows fit, keeping
	// the Table 1 ratio for the other tiers.
	ram := int64(perMachineGroups(cfg))*int64(cfg.RowsPerGroup)*cfg.RowBytes/32 + 1<<20
	spec := cluster.Spec{
		Regions:         cfg.Regions,
		RacksPerRegion:  1,
		MachinesPerRack: machinesPerRegion(cfg),
		CoresPerMachine: 16,
		Storage: storage.Capacities{
			storage.RAM: ram,
			storage.SSD: ram * ssdR / ramR,
			storage.HDD: ram * hddR / ramR,
		},
	}
	mgr, err := cluster.NewManager(env.Net, spec)
	if err != nil {
		return nil, err
	}
	db := &DB{
		env:   env,
		cfg:   cfg,
		mgr:   mgr,
		taxes: platform.TaxTablesFor(taxonomy.Spanner),
		rng:   stats.NewRNG(cfg.Seed),
	}
	db.zipf = stats.NewZipf(db.rng.Fork(), cfg.RowsPerGroup, 1.1)
	// The RPC client seed is derived from the config seed without touching
	// db.rng, so enabling a policy cannot shift the workload's random streams.
	db.client = netsim.NewClient(cfg.RPC, cfg.Seed^0x52504353) // "RPCS"
	db.registerClassifier()
	db.buildRecipes()
	if err := db.place(); err != nil {
		return nil, err
	}
	db.load()
	db.enableObs(env.Obs)
	return db, nil
}

// enableObs registers the deployment's series with the environment's
// observability plane. A nil registry leaves all handles nil, so every
// record site is a single-branch no-op.
func (db *DB) enableObs(r *obs.Registry) {
	if r == nil {
		return
	}
	db.mConsensusRounds = r.Counter("spanner.consensus.rounds")
	db.mElections = r.Counter("spanner.elections")
	db.mCompactions = r.Counter("spanner.compactions")
	db.mReadLat = r.Histogram("spanner.read.latency")
	db.mCommitLat = r.Histogram("spanner.commit.latency")
	// Apply lag: committed entries the current leaders have not applied to
	// their row state yet, summed over groups — the replication plane's
	// freshness debt at each sampling instant.
	r.GaugeFunc("spanner.apply.lag", func() int64 {
		var lag int64
		for _, grp := range db.groups {
			if d := grp.committed - grp.leaderRep().applied; d > 0 {
				lag += int64(d)
			}
		}
		return lag
	})
}

func machinesPerRegion(cfg Config) int {
	m := cfg.Groups / 3
	if m < 1 {
		m = 1
	}
	return m
}

// perMachineGroups bounds the groups one machine holds a replica of: place
// deals each region's machines the groups round robin, one replica per
// region.
func perMachineGroups(cfg Config) int {
	return (cfg.Groups + machinesPerRegion(cfg) - 1) / machinesPerRegion(cfg)
}

// RecommendedNetConfig returns network parameters for a metro-replicated
// Spanner deployment (quorums within a continent, not across oceans).
func RecommendedNetConfig() netsim.Config {
	c := netsim.DefaultConfig()
	c.CrossRegionRTT = 3 * time.Millisecond
	return c
}

func (db *DB) registerClassifier() {
	c := db.env.Prof.Classifier()
	c.Register("spanner.read.", taxonomy.Read)
	c.Register("spanner.write.", taxonomy.Write)
	c.Register("spanner.consensus.", taxonomy.Consensus)
	c.Register("spanner.query.", taxonomy.Query)
	c.Register("spanner.compaction.", taxonomy.Compaction)
	c.Register("spanner.misc.", taxonomy.MiscCore)
	// spanner.runtime.* is intentionally unregistered: it lands in
	// Uncategorized, modeling unlabeled compute.
}

func (db *DB) buildRecipes() {
	cc := platform.PaperMicro(taxonomy.Spanner, taxonomy.CoreCompute)
	mk := func(budget time.Duration, split platform.Split) platform.Recipe {
		micros := platform.MicroFor(cc, split.Keys()...)
		r := platform.BuildRecipe(budget, split, micros)
		dct, st := platform.TaxBudgets(taxonomy.Spanner, float64(budget))
		return append(r, db.taxes.TaxRecipe(time.Duration(dct), time.Duration(st))...)
	}
	db.readRecipe = mk(readCoreBudget, platform.Split{
		"spanner.read.RowLookup": 0.78, "spanner.misc.Validate": 0.11, "spanner.runtime.Glue": 0.11,
	})
	db.writeRecipe = mk(writeCoreBudget, platform.Split{
		"spanner.write.Apply": 0.52, "spanner.consensus.Propose": 0.40,
		"spanner.misc.Validate": 0.04, "spanner.runtime.Glue": 0.04,
	})
	db.queryRecipe = mk(queryCoreBudget, platform.Split{
		"spanner.query.Eval": 0.72, "spanner.read.Scan": 0.10,
		"spanner.misc.Validate": 0.09, "spanner.runtime.Glue": 0.09,
	})
	db.compactRecipe = mk(compactionCoreBudget, platform.Split{
		"spanner.compaction.Merge": 0.72, "spanner.misc.Validate": 0.14, "spanner.runtime.Glue": 0.14,
	})
	db.followerRecipe = mk(followerConsensus, platform.Split{"spanner.consensus.Append": 1})
	db.leaseRecipe = mk(leaseCheckBudget, platform.Split{"spanner.consensus.LeaseCheck": 1})
}

// place assigns each group one replica per region and starts RPC servers.
func (db *DB) place() error {
	byRegion := map[int][]*cluster.Machine{}
	for _, m := range db.mgr.Machines() {
		byRegion[m.Node.Region] = append(byRegion[m.Node.Region], m)
	}
	for g := 0; g < db.cfg.Groups; g++ {
		grp := &group{id: g}
		for r := 0; r < db.cfg.Regions; r++ {
			ms := byRegion[r]
			if len(ms) == 0 {
				return fmt.Errorf("spanner: no machines in region %d", r)
			}
			m := ms[g%len(ms)]
			rep := &replica{
				machine: m, region: r, rows: map[uint64][]byte{},
				clock: sim.NewClock(db.env.K, db.cfg.ClockEps),
			}
			db.startServer(grp, rep)
			grp.replicas = append(grp.replicas, rep)
		}
		db.groups = append(db.groups, grp)
	}
	return nil
}

// load bootstraps the replica stores with the initial row objects (outside
// simulated time). Bootstrap row *contents* are virtual — bootstrapValue
// computes them on demand — so memory scales with written rows only. Each
// machine's store takes one bulk Load of its replicas' row ids, group by
// group and rows in order (a group has one replica per region, so at most
// one on a machine).
func (db *DB) load() {
	keys := make([]uint64, 0, perMachineGroups(db.cfg)*db.cfg.RowsPerGroup) // one machine's share
	for _, m := range db.mgr.Machines() {
		keys = keys[:0]
		for _, g := range db.groups {
			for _, rep := range g.replicas {
				if rep.machine == m {
					for row := 0; row < db.cfg.RowsPerGroup; row++ {
						keys = append(keys, rowID(g.id, row))
					}
				}
			}
		}
		if err := m.Store.Load(keys, db.cfg.RowBytes); err != nil {
			panic(fmt.Sprintf("spanner: bootstrap overflow: %v", err))
		}
	}
}

// bootstrapValue returns the deterministic initial content of a row.
func (db *DB) bootstrapValue(g, row int) []byte {
	val := make([]byte, db.cfg.RowBytes)
	for j := range val {
		val[j] = bootstrapByte(g, row, j)
	}
	return val
}

// bootstrapByte is byte j of row `row` of group g's bootstrap content.
func bootstrapByte(g, row, j int) byte { return byte(uint64(g)*7 + uint64(row)*13 + uint64(j)) }

// lookupRow resolves a row through a replica's applied state, falling back
// to the virtual bootstrap content.
func (db *DB) lookupRow(rep *replica, g, row int) ([]byte, error) {
	if row < 0 || row >= db.cfg.RowsPerGroup {
		return nil, fmt.Errorf("spanner: row %d out of range", row)
	}
	if v, ok := rep.rows[rowID(g, row)]; ok {
		return v, nil
	}
	return db.bootstrapValue(g, row), nil
}

// firstByte is lookupRow's first byte for an in-range row, read without
// materialising a virtual bootstrap row; ok is false for an empty row.
func (db *DB) firstByte(rep *replica, g, row int) (b byte, ok bool) {
	if v, applied := rep.rows[rowID(g, row)]; applied {
		if len(v) == 0 {
			return 0, false
		}
		return v[0], true
	}
	return bootstrapByte(g, row, 0), db.cfg.RowBytes > 0
}

// rowID is the key of row `row` in group g in the replica stores and row
// state: the group over the row's low 32 bits. New caps RowsPerGroup below
// 2^32, so in-range rows never alias; callers range-check the row first.
func rowID(g, row int) uint64 { return uint64(g)<<32 | uint64(uint32(row)) }

// rowKey is a row's name in text: the operation history's register key and
// the invariant messages.
func rowKey(g, row int) string { return fmt.Sprintf("g%d/r%d", g, row) }

// idKey is rowKey for a rowID.
func idKey(id uint64) string { return rowKey(int(id>>32), int(uint32(id))) }

// readRow reads row `row` of group g from a replica's store. A row outside
// the group has no object, and fails as the store fails a missing key.
func (db *DB) readRow(rep *replica, g, row int) (time.Duration, error) {
	if row < 0 || row >= db.cfg.RowsPerGroup {
		return 0, fmt.Errorf("%w: %q", storage.ErrNotFound, rowKey(g, row))
	}
	d, _, err := rep.machine.Store.Read(rowID(g, row))
	return d, err
}

// NumGroups returns the number of tablet groups.
func (db *DB) NumGroups() int { return db.cfg.Groups }

// RowsPerGroup returns the rows per group.
func (db *DB) RowsPerGroup() int { return db.cfg.RowsPerGroup }

// PickRow draws a Zipf-popular row index.
func (db *DB) PickRow() int { return db.zipf.Next() }

// Machines exposes the fleet for inventory accounting.
func (db *DB) Machines() []*cluster.Machine { return db.mgr.Machines() }

// Stop shuts down all replica RPC servers.
func (db *DB) Stop() {
	for _, g := range db.groups {
		for _, rep := range g.replicas {
			rep.srv.Stop()
		}
	}
}

func (db *DB) handleLease(rep *replica) netsim.Handler {
	return func(p *sim.Proc, req netsim.Request) netsim.Response {
		db.env.ExecRecipe(p, taxonomy.Spanner, rep.machine.Node, nil, db.leaseRecipe)
		return netsim.Response{Bytes: 32}
	}
}

// read is the un-recorded implementation of Read.
func (db *DB) read(p *sim.Proc, tr *trace.Trace, g, row int, strong bool) ([]byte, error) {
	if g < 0 || g >= len(db.groups) {
		return nil, fmt.Errorf("spanner: group %d out of range", g)
	}
	grp := db.groups[g]
	leader, err := db.ensureLeader(p, grp)
	if err != nil {
		return nil, err
	}
	if strong {
		if err := db.quorumRound(p, tr, grp); err != nil {
			return nil, err
		}
	}
	db.env.ExecRecipe(p, taxonomy.Spanner, leader.machine.Node, tr, db.readRecipe)
	ioStart := p.Now()
	d, err := db.readRow(leader, g, row)
	if err != nil {
		return nil, err
	}
	p.Sleep(d)
	platform.AnnotateIO(tr, ioStart, p.Now())
	val, err := db.lookupRow(leader, g, row)
	if err != nil {
		return nil, err
	}
	db.Reads++
	return val, nil
}

// commit is the un-recorded implementation of Commit. The appended result
// reports whether the entry reached the leader's log before the error: a
// pre-append failure definitely had no effect, while a post-append failure is
// indeterminate — a later catch-up can still replicate and commit the entry.
// ts is the commit timestamp minted for the entry (zero when minting never
// happened).
func (db *DB) commit(p *sim.Proc, tr *trace.Trace, g, row int, value []byte) (appended bool, ts time.Duration, err error) {
	if g < 0 || g >= len(db.groups) {
		return false, 0, fmt.Errorf("spanner: group %d out of range", g)
	}
	if row < 0 || row >= db.cfg.RowsPerGroup {
		return false, 0, fmt.Errorf("spanner: row %d out of range", row)
	}
	grp := db.groups[g]
	leader, err := db.ensureLeader(p, grp)
	if err != nil {
		return false, 0, err
	}
	// Capture the leadership term alongside the leader: an election can land
	// during any park point below (the recipe, the log IO), and the entry must
	// be stamped with the term it was *minted* under. Reading grp.term at
	// append time instead would let a deposed leader stamp the new term, pass
	// the followers' stale-term check, and mint an entry conflicting with the
	// new leader's at the same (index, term) — losing an acknowledged write.
	term := grp.term
	db.env.ExecRecipe(p, taxonomy.Spanner, leader.machine.Node, tr, db.writeRecipe)

	// Mint the commit timestamp from the leader's local clock: the latest
	// edge of its uncertainty interval (never in the node's believed past),
	// pushed above the group's high-water mark so timestamps stay strictly
	// monotone per group even when skew runs a clock backwards.
	ts = leader.clock.Latest()
	if ts <= grp.lastTS {
		ts = grp.lastTS + 1
	}
	grp.lastTS = ts

	// Leader durable log append.
	key := rowID(g, row)
	cp := make([]byte, len(value))
	copy(cp, value)
	entry := logEntry{key: key, value: cp, term: term, ts: ts}
	leader.log = append(leader.log, entry)
	prevIndex := len(leader.log) - 1
	ioStart := p.Now()
	p.Sleep(leader.machine.Store.RawAccess(storage.SSD, int64(len(value))+64, true))
	platform.AnnotateIO(tr, ioStart, p.Now())

	// Parallel replication; majority = leader + 1 follower ack.
	if err := db.replicateEntry(p, tr, grp, leader, prevIndex); err != nil {
		return true, ts, err
	}
	if prevIndex+1 > grp.committed {
		grp.committed = prevIndex + 1
	}

	// Apply the committed prefix on the leader, in log order. Applying
	// grp.committed rather than just this entry also covers entries that
	// became committed through a *later* entry's replication (a failed
	// majority round leaves its entry in the log; the next successful round
	// commits the whole prefix) and keeps concurrent same-key commits applied
	// in log order, not completion order.
	applyStart := p.Now()
	d, err := leader.machine.Store.Write(key, int64(len(value)))
	if err != nil {
		return true, ts, err
	}
	p.Sleep(d)
	platform.AnnotateIO(tr, applyStart, p.Now())
	applyUpTo(leader, grp.committed)
	if cur := grp.leaderRep(); cur != leader {
		// An election landed while this round was in flight (every ack
		// predates it, or the followers would have refused the stale term).
		// The acking followers held this entry at election time, so the
		// most-up-to-date winner holds it too — but its row state was only
		// caught up to the commit index as of the election. Re-apply so the
		// write this client is about to ack is readable through the new
		// leader.
		applyUpTo(cur, grp.committed)
	}
	db.Writes++

	grp.commits++
	if db.cfg.CompactionEvery > 0 && grp.commits%db.cfg.CompactionEvery == 0 {
		db.startCompaction(grp)
	}

	// Commit wait: hold the acknowledgment until the leader's uncertainty
	// interval has wholly passed ts, so every operation invoked anywhere
	// after this ack observes a strictly larger timestamp (external
	// consistency). The DisableCommitWait fixture skips the wait, which the
	// external-consistency checker must flag under injected skew.
	if db.cfg.ClockEps > 0 && !db.cfg.DisableCommitWait {
		leader.clock.CommitWait(p, ts)
	}
	return true, ts, nil
}

// ErrNoQuorum is returned when too many replicas are down to reach a
// majority.
var ErrNoQuorum = errors.New("spanner: quorum unavailable")

// quorumRound confirms the leader's lease: it sends a lease check to every
// follower in parallel and waits for enough acknowledgments to form a
// majority with the leader, annotating the wait as remote work. Followers
// whose servers are down count as failures; the round errors out as soon as
// a majority becomes impossible.
func (db *DB) quorumRound(p *sim.Proc, tr *trace.Trace, grp *group) error {
	r := &leaseRound{db.newRound(grp)}
	return r.run(p, tr, r.follow)
}

// leaseRound is one lease round: a consensus.lease RPC to every follower.
type leaseRound struct{ round }

// follow is the body of a lease round's follower processes, spawned as one
// method value per round.
func (r *leaseRound) follow(cp *sim.Proc) {
	_, rep := r.follower()
	// Lease/health rounds ride the priority lane: under a brownout they
	// overtake the user-traffic backlog and bypass shedding, so the control
	// plane keeps functioning while the data plane degrades.
	resp, _ := r.db.client.Call(cp, r.grp.leaderRep().machine.Node, rep.srv,
		netsim.Request{Method: "consensus.lease", Bytes: 32, Priority: true})
	r.report(resp.Err)
}

// round is the state one quorum round's follower processes share: which
// replica each serves, their acks and nacks, and the signal that fires once
// the round is decided. Lease and append rounds embed it. A round is
// allocated per round and never recycled: under a deadline policy or a crash,
// Client.Call returns while the follower's handler is still queued or
// running, and the handler reads its payload, which may point into the round,
// later.
type round struct {
	db  *DB
	grp *group
	// leader is grp.leader at round start: the one replica no follower
	// serves.
	leader int
	// started counts the follower processes that have begun. Processes start
	// in spawn order, so the k-th serves the k-th replica after skipping the
	// leader.
	started     int
	acks, nacks int
	decided     sim.Signal
}

// newRound starts a round of grp under its current leader.
func (db *DB) newRound(grp *group) round {
	return round{db: db, grp: grp, leader: grp.leader}
}

// run spawns follow once per follower and waits until a majority (with the
// leader) has succeeded, annotating the wait as remote work. It errors out as
// soon as a majority becomes impossible. A round allocates its record and the
// one method value its followers share, nothing more.
func (r *round) run(p *sim.Proc, tr *trace.Trace, follow func(*sim.Proc)) error {
	r.db.mConsensusRounds.Inc()
	start := p.Now()
	need := len(r.grp.replicas) / 2 // follower acks for majority incl. leader
	for range len(r.grp.replicas) - 1 {
		r.db.env.K.Go("spanner-replicate", follow)
	}
	if need > 0 {
		p.Wait(&r.decided)
	}
	platform.AnnotateRemote(tr, start, p.Now())
	if r.acks < need {
		return fmt.Errorf("%w: group %d got %d/%d follower acks", ErrNoQuorum, r.grp.id, r.acks, need)
	}
	return nil
}

// follower returns the index among the round's followers and the replica of
// the follower process now starting.
func (r *round) follower() (int, *replica) {
	k := r.started
	r.started++
	i := k
	if i >= r.leader {
		i++
	}
	return k, r.grp.replicas[i]
}

// report counts one follower's outcome and fires decided once the round has
// its majority or can no longer reach one.
func (r *round) report(err error) {
	if err != nil {
		r.nacks++
	} else {
		r.acks++
	}
	followers := len(r.grp.replicas) - 1
	need := len(r.grp.replicas) / 2
	if r.acks >= need || r.nacks > followers-need {
		r.decided.Fire()
	}
}

// StopReplica injects a failure: it stops the RPC server of group g's
// replica in the given region (region 0 is the leader). Reads and commits
// keep succeeding while a majority of replicas remains up.
func (db *DB) StopReplica(g, region int) error {
	if g < 0 || g >= len(db.groups) {
		return fmt.Errorf("spanner: group %d out of range", g)
	}
	if region < 0 || region >= len(db.groups[g].replicas) {
		return fmt.Errorf("spanner: region %d out of range", region)
	}
	db.groups[g].replicas[region].srv.Stop()
	return nil
}

// CrashReplica injects a hard failure: the replica's server crashes, failing
// its queued and in-flight RPCs immediately (unlike StopReplica's graceful
// drain). Use RestartReplica to bring it back.
func (db *DB) CrashReplica(g, region int) error {
	if g < 0 || g >= len(db.groups) {
		return fmt.Errorf("spanner: group %d out of range", g)
	}
	if region < 0 || region >= len(db.groups[g].replicas) {
		return fmt.Errorf("spanner: region %d out of range", region)
	}
	db.groups[g].replicas[region].srv.Crash()
	return nil
}

// SetReplicaSlowdown injects (or clears, with factor <= 1) a straggler on the
// replica's RPC server.
func (db *DB) SetReplicaSlowdown(g, region int, factor float64) error {
	if g < 0 || g >= len(db.groups) {
		return fmt.Errorf("spanner: group %d out of range", g)
	}
	if region < 0 || region >= len(db.groups[g].replicas) {
		return fmt.Errorf("spanner: region %d out of range", region)
	}
	db.groups[g].replicas[region].srv.SetSlowdown(factor)
	return nil
}

// ReplicaDown reports whether group g's replica in the given region is
// stopped or crashed.
func (db *DB) ReplicaDown(g, region int) bool {
	if g < 0 || g >= len(db.groups) || region < 0 || region >= len(db.groups[g].replicas) {
		return false
	}
	return db.groups[g].replicas[region].srv.Stopped()
}

// RPCClient exposes the consensus RPC client's counters for reports.
func (db *DB) RPCClient() *netsim.Client { return db.client }

// OverloadStats sums the replica servers' admission-control counters:
// requests shed at the hard queue bound, shed adaptively below it, and
// expired by the CoDel queue deadline.
func (db *DB) OverloadStats() (shed, adaptive, expired int) {
	for _, grp := range db.groups {
		for _, rep := range grp.replicas {
			shed += rep.srv.Shed
			adaptive += rep.srv.ShedAdaptive
			expired += rep.srv.Expired
		}
	}
	return
}

// ensureLeader returns the group's current leader, electing a new one first
// if the incumbent's server is down — this is how client operations fail over
// across replicas: the read/commit retries land on the freshly elected
// leader instead of erroring against the dead one. With PartitionRecovery, a
// leader cut off from a quorum of its group (asymmetric link blocks count in
// either direction) steps down the same way, and the election runs over the
// majority-connected component — so the minority side never commits and the
// majority side regains availability without waiting for the heal.
//
// When PartitionRecovery finds no quorum-connected candidate, the election
// is retried on the consensus RPC policy's schedule rather than failed at
// once: up to RPC.Attempts() tries, the next one after a cross-group round
// trip (what a failed replication attempt costs) plus the policy's backoff.
// Step-down must not fail an operation faster than the replication retries
// it replaces would; waiting never commits on the minority side.
func (db *DB) ensureLeader(p *sim.Proc, grp *group) (*replica, error) {
	for retry := 1; ; retry++ {
		lead := grp.leaderRep()
		if !lead.srv.Stopped() && (!db.cfg.PartitionRecovery || db.quorumConnected(grp, grp.leader)) {
			return lead, nil
		}
		_, err := db.elect(grp)
		if err == nil {
			return grp.leaderRep(), nil
		}
		if !db.cfg.PartitionRecovery || retry >= db.cfg.RPC.Attempts() {
			return nil, err
		}
		p.Sleep(db.groupRTT(grp) + db.cfg.RPC.Backoff(retry))
	}
}

// groupRTT is the longest round trip between two of the group's replicas.
func (db *DB) groupRTT(grp *group) time.Duration {
	var rtt time.Duration
	for _, a := range grp.replicas {
		for _, b := range grp.replicas {
			rtt = max(rtt, db.env.Net.RTT(a.machine.Node, b.machine.Node))
		}
	}
	return rtt
}

// quorumConnected reports whether group grp's replica i is live and can
// reach a majority of the group (itself included) over unblocked links. Gray
// (slow, lossy) links still count as reachable: only a full block in either
// direction justifies treating a peer as partitioned away.
func (db *DB) quorumConnected(grp *group, i int) bool {
	rep := grp.replicas[i]
	if rep.srv.Stopped() {
		return false
	}
	reach := 1
	for j, other := range grp.replicas {
		if j == i || other.srv.Stopped() {
			continue
		}
		if db.env.Net.Reachable(rep.machine.Node, other.machine.Node) {
			reach++
		}
	}
	return reach >= len(grp.replicas)/2+1
}

// SetClockSkew injects clock skew on group g's replica in the given region:
// an absolute offset plus a drift rate (seconds of skew per true second)
// accruing from now. Re-injection replaces the previous skew; zero values
// restore a true clock.
func (db *DB) SetClockSkew(g, region int, offset time.Duration, drift float64) error {
	if g < 0 || g >= len(db.groups) {
		return fmt.Errorf("spanner: group %d out of range", g)
	}
	if region < 0 || region >= len(db.groups[g].replicas) {
		return fmt.Errorf("spanner: region %d out of range", region)
	}
	db.groups[g].replicas[region].clock.SetSkew(offset, drift)
	return nil
}

// ReplicaNodeName returns the name of the netsim node hosting group g's
// replica in the given region, for addressing link-level faults (machines
// are shared across groups, so a link fault on one name can affect several
// groups — exactly like a real rack cut).
func (db *DB) ReplicaNodeName(g, region int) (string, error) {
	if g < 0 || g >= len(db.groups) {
		return "", fmt.Errorf("spanner: group %d out of range", g)
	}
	if region < 0 || region >= len(db.groups[g].replicas) {
		return "", fmt.Errorf("spanner: region %d out of range", region)
	}
	return db.groups[g].replicas[region].machine.Node.Name, nil
}

// Query runs a SQL-ish scan over QueryScanRows consecutive rows of group g
// starting at row start, returning how many rows satisfy a real predicate
// (first byte odd).
func (db *DB) Query(p *sim.Proc, tr *trace.Trace, g, start int) (int, error) {
	if g < 0 || g >= len(db.groups) {
		return 0, fmt.Errorf("spanner: group %d out of range", g)
	}
	grp := db.groups[g]
	leader, err := db.ensureLeader(p, grp)
	if err != nil {
		return 0, err
	}
	db.env.ExecRecipe(p, taxonomy.Spanner, leader.machine.Node, tr, db.queryRecipe)

	matched := 0
	ioStart := p.Now()
	var ioTime time.Duration
	for i := 0; i < db.cfg.QueryScanRows; i++ {
		row := (start + i) % db.cfg.RowsPerGroup
		d, err := db.readRow(leader, g, row)
		if err != nil {
			return 0, err
		}
		ioTime += d
		if b, ok := db.firstByte(leader, g, row); ok && b%2 == 1 {
			matched++
		}
	}
	p.Sleep(ioTime)
	platform.AnnotateIO(tr, ioStart, p.Now())
	db.Queries++
	return matched, nil
}

// startCompaction launches a background compaction of the group on the
// leader machine: it reads and rewrites the group's resident bytes and burns
// the compaction CPU recipe. Queries are not blocked (unlike BigTable).
func (db *DB) startCompaction(grp *group) {
	leader := grp.leaderRep()
	size := int64(db.cfg.RowsPerGroup) * db.cfg.RowBytes
	db.env.K.Go("spanner-compaction", func(p *sim.Proc) {
		p.Sleep(leader.machine.Store.RawAccess(storage.HDD, size, false))
		db.env.ExecRecipe(p, taxonomy.Spanner, leader.machine.Node, nil, db.compactRecipe)
		p.Sleep(leader.machine.Store.RawAccess(storage.HDD, size, true))
		db.Compactions++
		db.mCompactions.Inc()
	})
}
