// Package bigtable simulates a BigTable-like cluster-level NoSQL key-value
// store (§2.2.2): tablet servers with in-memory memtables, a replicated
// commit log and immutable SSTables on the shared distributed file system,
// minor compactions (memtable flushes) and blocking major compactions in
// remote storage — the remote-work component §4.1 attributes to BigTable.
// Key/value data is real: gets return the bytes puts stored, merged across
// memtable, immutable memtables and SSTables newest-first.
package bigtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"hyperprof/internal/bloom"
	"hyperprof/internal/check"
	"hyperprof/internal/cluster"
	"hyperprof/internal/compress"
	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
	"hyperprof/internal/storage"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// Config sizes a BigTable deployment.
type Config struct {
	// Tablets is the number of tablets (each owned by one tablet server).
	Tablets int
	// TabletServers is the number of serving machines.
	TabletServers int
	// Chunkservers backs the shared DFS.
	Chunkservers int
	// RowsPerTablet and ValueBytes size the dataset.
	RowsPerTablet int
	ValueBytes    int64
	// FlushEvery puts trigger a minor compaction (memtable flush).
	FlushEvery int
	// MajorEvery flushes trigger a blocking major compaction.
	MajorEvery int
	// ScanRows is the row count of a scan operation.
	ScanRows int
	// Seed drives all randomness.
	Seed uint64
	// Admission arms the front-door overload gate (see overload.go):
	// MaxQueue bounds concurrent operations per tablet server and
	// ShedStartFrac sheds probabilistically as in-flight load approaches it.
	// Target/Interval are unused — operations execute directly, there is no
	// queue whose sojourn could be bounded. The zero value disables the gate.
	Admission netsim.Admission
	// PartitionRecovery enables master-side partition handling: tablets on a
	// partitioned server are reassigned to reachable servers with a commit-log
	// replay (exactly the crash path, epoch fencing and duplicate-replay
	// detection included), restoring availability mid-partition. Off, ops on
	// a partitioned server's tablets fail until the heal — safe but
	// unavailable.
	PartitionRecovery bool
	// BrokenPartitionWrites is a broken-knob fixture: a partitioned tablet
	// server keeps acknowledging writes into its local memtable even though it
	// cannot reach the shared commit log, and the heal-time fencing rebuild
	// replays only the log — the acknowledged-but-unlogged writes vanish,
	// which the linearizability checker must flag as lost writes.
	BrokenPartitionWrites bool
}

// DefaultConfig returns a laptop-scale deployment preserving the
// paper-relevant behaviour.
func DefaultConfig() Config {
	return Config{
		Tablets:       8,
		TabletServers: 4,
		Chunkservers:  6,
		RowsPerTablet: 3000,
		ValueBytes:    1024,
		FlushEvery:    10,
		MajorEvery:    3,
		ScanRows:      100,
		Seed:          1,
	}
}

// Core-compute CPU budgets per operation (pre-tax), solved so the aggregate
// core split under the default mix lands on Figure 4's BigTable bar.
const (
	getCoreBudget   = 500 * time.Microsecond
	putCoreBudget   = 1140 * time.Microsecond
	scanCoreBudget  = 1110 * time.Microsecond
	minorCoreBudget = 2500 * time.Microsecond
	majorCoreBudget = 18 * time.Millisecond
)

// DB is a running BigTable deployment.
type DB struct {
	env     *platform.Env
	cfg     Config
	mgr     *cluster.Manager
	dfs     *storage.DFS
	taxes   platform.TaxTables
	tablets []*tablet
	rng     *stats.RNG
	zipf    *stats.Zipf

	getRecipe   platform.Recipe
	putRecipe   platform.Recipe
	scanRecipe  platform.Recipe
	minorRecipe platform.Recipe
	majorRecipe platform.Recipe

	// downServers marks failed tablet servers by machine index.
	downServers map[int]bool
	// partitioned marks tablet servers cut off from the rest of the cluster
	// (master, DFS and peers) by machine index. Unlike downServers the
	// machine itself is healthy — it just cannot be reached or reach out,
	// which is exactly the gray area split-brain bugs live in.
	partitioned map[int]bool

	// Front-door gate state (see overload.go): in-flight ops per tablet
	// server and the adaptive-shed stream. Nil/zero when the gate is off.
	gateInFlight map[int]int
	gateRNG      *stats.RNG

	// rec, when non-nil, records every Get/Put into an operation history for
	// the safety checker (see safety.go).
	rec *check.History
	// brokenLogTruncateEarly reintroduces the early-truncation bug: the
	// commit log is dropped when the memtable is *snapshotted* instead of
	// when the flush is *durable*, so a crash mid-flush loses acknowledged
	// writes. Test fixture for the checker.
	brokenLogTruncateEarly bool
	// brokenReplayDup disables log truncation entirely, so post-crash replay
	// re-applies records that are already durable in SSTables. Test fixture
	// for the duplicate-replay check.
	brokenReplayDup bool

	// Counters for tests and reports.
	Gets, Puts, Scans, MinorCompactions, MajorCompactions int
	// Reassignments counts tablets moved off a failed server; Recoveries
	// counts completed commit-log replays; ReplayDups counts replayed
	// commit-log records that were already durable (always a safety bug).
	Reassignments, Recoveries, ReplayDups int
	// BloomSkips counts SSTable probes avoided by Bloom filters;
	// RawBytes/CompressedBytes account flush compression.
	BloomSkips                int
	RawBytes, CompressedBytes int64
	// Shed and ShedAdaptive count operations refused by the front-door gate
	// (hard bound vs. probabilistic; an op lands in at most one).
	Shed, ShedAdaptive int

	// sealRaw and sealEnc are seal's scratch buffers for the raw and encoded
	// SSTable block; they grow to the largest table sealed so far.
	sealRaw, sealEnc []byte

	// Observability handles (nil when env.Obs is disabled; see enableObs).
	mMinorCompactions *obs.Counter
	mMajorCompactions *obs.Counter
	mTabletMoves      *obs.Counter
	mRecoveries       *obs.Counter
	mGetLat           *obs.Histogram
	mPutLat           *obs.Histogram
	mSheds            *obs.Counter
	mShedsAdaptive    *obs.Counter
}

type sstable struct {
	file string
	// base, when non-nil, is the tablet's shared base index: the table holds
	// every bootstrap row virtually, and data is the overlay of rows some
	// write overrode. A table without a base holds exactly data.
	base *baseIndex
	// data maps row numbers to values; a row's key is rowKey(tablet, row).
	data map[int][]byte
	// bytes is the on-DFS (block-compressed) size; rawBytes the logical
	// size before compression.
	bytes    int64
	rawBytes int64
	// filter lets point reads skip DFS probes for keys this table cannot
	// contain.
	filter *bloom.Filter
}

// baseIndex is everything a base SSTable needs besides its row contents,
// which fillBootstrap computes on demand. It depends only on (tablet,
// RowsPerTablet, ValueBytes), so one index per triple is built once per
// process and shared read-only by every DB: about ten bytes per row. Every
// table of the tablet, based or not, is sealed in its key order.
type baseIndex struct {
	tablet     int
	valueBytes int
	keyOrder
	// keyBytes is the sum of the bootstrap rows' key lengths.
	keyBytes int
	// filter, bytes and rawBytes are the sealed base table's: one real
	// Snappy encode of the raw block sizes it.
	filter          *bloom.Filter
	bytes, rawBytes int64
}

// keyOrder orders row numbers as their keys sort as strings. Every key of
// a tablet shares the "t<tablet>/k" prefix, so the order is that of the
// rows' decimal renderings and depends on nothing but the row count R.
type keyOrder struct {
	// order holds the rows 0..R-1 in key order; rank[row] is row's position
	// in order.
	order, rank []int32
}

// newKeyOrder returns the key order of rows 0..rows-1: the preorder of the
// decimal trie over them (0, 1, 10, 100, ..., 101, ..., 11, ...), which is
// the order sort.Strings gives their keys, built without a key or a sort.
func newKeyOrder(rows int) keyOrder {
	o := keyOrder{order: make([]int32, 0, rows), rank: make([]int32, rows)}
	if rows > 0 {
		o.order = append(o.order, 0)
	}
	for cur := 1; len(o.order) < rows; {
		o.order = append(o.order, int32(cur))
		if cur*10 < rows {
			cur *= 10 // descend to the first child
			continue
		}
		for cur%10 == 9 || cur+1 >= rows {
			cur /= 10 // no next sibling: climb
		}
		cur++
	}
	for i, r := range o.order {
		o.rank[r] = int32(i)
	}
	return o
}

// has reports whether row is one of the base rows.
func (o *keyOrder) has(row int) bool { return row >= 0 && row < len(o.rank) }

// compare orders two rows of one tablet as strings.Compare orders their
// keys. Two base rows compare by rank; otherwise both rows' decimals,
// which is where their keys first differ, are rendered and compared.
func (o *keyOrder) compare(a, b int) int {
	if o.has(a) && o.has(b) {
		return int(o.rank[a]) - int(o.rank[b])
	}
	var ab, bb [24]byte
	return bytes.Compare(strconv.AppendInt(ab[:0], int64(a), 10), strconv.AppendInt(bb[:0], int64(b), 10))
}

type baseIndexKey struct {
	tablet, rows int
	valueBytes   int64
}

type baseIndexOnce struct {
	once sync.Once
	idx  *baseIndex
}

// baseIndexes caches one *baseIndexOnce per baseIndexKey for the life of the
// process.
var baseIndexes sync.Map

// baseIndexFor returns tablet t's shared base index, building it on first
// use with this DB's seal buffers (so the builder's in-run seals find them
// already grown).
func (db *DB) baseIndexFor(t int) *baseIndex {
	key := baseIndexKey{tablet: t, rows: db.cfg.RowsPerTablet, valueBytes: db.cfg.ValueBytes}
	e, ok := baseIndexes.Load(key)
	if !ok {
		e, _ = baseIndexes.LoadOrStore(key, &baseIndexOnce{})
	}
	bo := e.(*baseIndexOnce)
	bo.once.Do(func() { bo.idx = db.buildBaseIndex(t) })
	return bo.idx
}

func (db *DB) buildBaseIndex(t int) *baseIndex {
	rows := db.cfg.RowsPerTablet
	idx := &baseIndex{tablet: t, valueBytes: int(db.cfg.ValueBytes), keyOrder: newKeyOrder(rows)}
	for i := 0; i < rows; i++ {
		idx.keyBytes += keyLen(t, i)
	}
	s := &sstable{base: idx}
	db.seal(s, idx)
	idx.filter, idx.bytes, idx.rawBytes = s.filter, s.bytes, s.rawBytes
	return idx
}

// seal finalizes an sstable of the tablet idx indexes: it builds the Bloom
// filter over its keys and block-compresses its contents (real codec) to
// size the DFS file. Only the two sizes survive the call, so the raw and
// encoded blocks are built in the DB's scratch buffers, which every seal
// reuses. No lock guards them: the kernel runs one process at a time and
// seal never parks. Rows are written in their keys' string order, each key
// rendered straight into the raw block and hashed into the filter from
// there. A table with a base merges the base rows with its sorted overlay
// rows and writes the virtual rows straight into the raw block; when the
// overlay adds no key the table shares the base's filter, which holds
// exactly its keys.
func (db *DB) seal(s *sstable, idx *baseIndex) {
	b := s.base
	rows := make([]int, 0, len(s.data))
	n, count := 0, 0
	var order []int32
	if b != nil {
		order = b.order
		n, count = b.keyBytes+len(order)*b.valueBytes, len(order)
	}
	for r, v := range s.data {
		rows = append(rows, r)
		if b != nil && b.has(r) {
			n += len(v) - b.valueBytes // overrides a base row
			continue
		}
		n += keyLen(idx.tablet, r) + len(v)
		count++
	}
	slices.SortFunc(rows, idx.compare)
	add := true
	if b != nil && b.filter != nil && count == len(order) {
		s.filter, add = b.filter, false
	} else {
		s.filter = bloom.New(count+1, 0.01)
	}
	raw := slices.Grow(db.sealRaw[:0], n)
	for len(order) > 0 || len(rows) > 0 {
		var r int
		virtual := len(rows) == 0 || (len(order) > 0 && idx.compare(int(order[0]), rows[0]) < 0)
		if virtual {
			r, order = int(order[0]), order[1:]
		} else {
			r, rows = rows[0], rows[1:]
			if len(order) > 0 && int(order[0]) == r {
				order = order[1:] // the overlay row overrides the base row
			}
		}
		l := len(raw)
		raw = appendRowKey(raw, idx.tablet, r)
		if add {
			s.filter.AddBytes(raw[l:])
		}
		if virtual {
			l = len(raw)
			raw = raw[:l+b.valueBytes]
			fillBootstrap(raw[l:], idx.tablet, r)
		} else {
			raw = append(raw, s.data[r]...)
		}
	}
	enc, err := compress.AppendEncode(db.sealEnc[:0], raw)
	if err != nil {
		panic(fmt.Sprintf("bigtable: seal: %v", err))
	}
	db.sealRaw, db.sealEnc = raw, enc
	s.rawBytes = int64(len(raw))
	s.bytes = int64(len(enc))
	if s.bytes == 0 {
		s.bytes = 1
	}
}

// logRec is one commit-log record: a sequenced mutation that survives a
// tablet-server crash on the DFS and is replayed on recovery.
type logRec struct {
	seq   int64
	row   int
	value []byte
}

type tablet struct {
	id        int
	server    *cluster.Machine
	serverIdx int // index into mgr.Machines() of the owning tablet server
	// idx is the tablet's shared base index: every table of the tablet is
	// sealed in its key order.
	idx     *baseIndex
	mem     map[int][]byte
	memSize int64
	memPuts int
	// log holds the un-truncated commit-log records, in seq order; logBytes
	// is their on-DFS volume — what a recovery replay must re-read after a
	// tablet-server crash. Records are truncated only once the flush that
	// made them durable has completed, never at snapshot time.
	log      []logRec
	logBytes int64
	// nextSeq is the next commit-log sequence number (1-based); durableSeq is
	// the highest sequence known durable in SSTables. Replaying a record with
	// seq <= durableSeq is the duplicate-replay safety violation.
	nextSeq    int64
	durableSeq int64
	// epoch is bumped on every reassignment; in-flight flushes from an older
	// epoch abort instead of promoting a snapshot the crash already lost.
	epoch int
	// flushPending holds the snapshot seqs of in-flight flushes in start
	// order; flushDone marks the completed ones, so durableSeq advances over
	// the completed prefix even when async flushes finish out of order.
	flushPending []int64
	flushDone    map[int64]bool
	imm          []*sstable // flushing memtable snapshots, newest first
	ssts         []*sstable // on-DFS sstables, newest first
	flushes      int
	nextSST      int
	// compacting is non-nil while a major compaction blocks the tablet.
	compacting *sim.Signal
	// recovering is non-nil while a post-crash log replay blocks the tablet.
	recovering *sim.Signal
}

// New builds and starts a deployment on the environment.
func New(env *platform.Env, cfg Config) (*DB, error) {
	// A tablet's key order holds its rows as int32s.
	if cfg.Tablets <= 0 || cfg.TabletServers <= 0 || cfg.RowsPerTablet <= 0 || cfg.RowsPerTablet > math.MaxInt32 || cfg.ValueBytes < 0 {
		return nil, fmt.Errorf("bigtable: invalid config %+v", cfg)
	}
	if cfg.Chunkservers < 3 {
		return nil, fmt.Errorf("bigtable: need >= 3 chunkservers, got %d", cfg.Chunkservers)
	}
	ramR, ssdR, hddR := platform.PaperStorageRatio(taxonomy.BigTable)
	// RAM sized so caches hold a few percent of the resident data.
	dataPerServer := int64(cfg.Tablets) * int64(cfg.RowsPerTablet) * cfg.ValueBytes / int64(cfg.TabletServers)
	ram := dataPerServer/32 + 256<<10
	caps := storage.Capacities{
		storage.RAM: ram,
		storage.SSD: ram * ssdR / ramR,
		storage.HDD: ram * hddR / ramR,
	}
	spec := cluster.Spec{
		Regions:         1,
		RacksPerRegion:  2,
		MachinesPerRack: (cfg.TabletServers + 1) / 2,
		CoresPerMachine: 16,
		Storage:         caps,
	}
	mgr, err := cluster.NewManager(env.Net, spec)
	if err != nil {
		return nil, err
	}
	dfs, err := storage.NewDFS(storage.DFSConfig{
		Chunkservers:     cfg.Chunkservers,
		Replication:      3,
		ChunkSize:        1 << 20,
		ServerCapacities: caps,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{
		env:         env,
		cfg:         cfg,
		mgr:         mgr,
		dfs:         dfs,
		taxes:       platform.TaxTablesFor(taxonomy.BigTable),
		rng:         stats.NewRNG(cfg.Seed),
		downServers: map[int]bool{},
		partitioned: map[int]bool{},
	}
	db.zipf = stats.NewZipf(db.rng.Fork(), cfg.RowsPerTablet, 1.1)
	db.initGate()
	db.registerClassifier()
	db.buildRecipes()
	if err := db.load(); err != nil {
		return nil, err
	}
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
	db.dfs.EnableMetrics(r)
	db.mMinorCompactions = r.Counter("bigtable.compactions.minor")
	db.mMajorCompactions = r.Counter("bigtable.compactions.major")
	db.mTabletMoves = r.Counter("bigtable.tablet.moves")
	db.mRecoveries = r.Counter("bigtable.recoveries")
	db.mGetLat = r.Histogram("bigtable.get.latency")
	db.mPutLat = r.Histogram("bigtable.put.latency")
	db.enableGateObs(r)
}

func (db *DB) registerClassifier() {
	c := db.env.Prof.Classifier()
	c.Register("bigtable.read.", taxonomy.Read)
	c.Register("bigtable.write.", taxonomy.Write)
	c.Register("bigtable.consensus.", taxonomy.Consensus)
	c.Register("bigtable.query.", taxonomy.Query)
	c.Register("bigtable.compaction.", taxonomy.Compaction)
	c.Register("bigtable.misc.", taxonomy.MiscCore)
}

func (db *DB) buildRecipes() {
	cc := platform.PaperMicro(taxonomy.BigTable, taxonomy.CoreCompute)
	mk := func(budget time.Duration, split platform.Split) platform.Recipe {
		micros := platform.MicroFor(cc, split.Keys()...)
		r := platform.BuildRecipe(budget, split, micros)
		dct, st := platform.TaxBudgets(taxonomy.BigTable, float64(budget))
		return append(r, db.taxes.TaxRecipe(time.Duration(dct), time.Duration(st))...)
	}
	db.getRecipe = mk(getCoreBudget, platform.Split{
		"bigtable.read.Seek": 0.70, "bigtable.misc.Bloom": 0.15, "bigtable.runtime.Glue": 0.15,
	})
	db.putRecipe = mk(putCoreBudget, platform.Split{
		"bigtable.write.MemInsert": 0.45, "bigtable.consensus.LogAck": 0.25,
		"bigtable.misc.Bloom": 0.15, "bigtable.runtime.Glue": 0.15,
	})
	db.scanRecipe = mk(scanCoreBudget, platform.Split{
		"bigtable.query.ScanMerge": 0.45, "bigtable.read.Seek": 0.25,
		"bigtable.misc.Bloom": 0.15, "bigtable.runtime.Glue": 0.15,
	})
	db.minorRecipe = mk(minorCoreBudget, platform.Split{
		"bigtable.compaction.Flush": 0.75, "bigtable.misc.Bloom": 0.12, "bigtable.runtime.Glue": 0.13,
	})
	db.majorRecipe = mk(majorCoreBudget, platform.Split{
		"bigtable.compaction.Merge": 0.75, "bigtable.misc.Bloom": 0.12, "bigtable.runtime.Glue": 0.13,
	})
}

// load places tablets on servers and bootstraps a base SSTable per tablet.
// Base rows are virtual (fillBootstrap computes them on demand) over the
// tablet's shared base index, so a DB stores only the rows it writes.
func (db *DB) load() error {
	machines := db.mgr.Machines()
	for t := 0; t < db.cfg.Tablets; t++ {
		idx := db.baseIndexFor(t)
		tab := &tablet{
			id:        t,
			server:    machines[t%len(machines)],
			serverIdx: t % len(machines),
			idx:       idx,
			mem:       map[int][]byte{},
			nextSeq:   1,
			flushDone: map[int64]bool{},
		}
		base := &sstable{
			file:     fmt.Sprintf("bt/tablet%d/base", t),
			base:     idx,
			filter:   idx.filter,
			bytes:    idx.bytes,
			rawBytes: idx.rawBytes,
		}
		if _, err := db.dfs.Create(base.file, base.bytes); err != nil {
			return err
		}
		tab.ssts = []*sstable{base}
		tab.nextSST = 1
		db.tablets = append(db.tablets, tab)
	}
	return nil
}

// appendRowKey appends the t<tablet>/k<row> key of a row to b. Tables key
// rows by number; a key's bytes are rendered only where they are consumed:
// a seal's raw block and Bloom filter, a point read's filter probes, and
// the text a caller sees (rowKey).
func appendRowKey(b []byte, tablet, row int) []byte {
	b = append(b, 't')
	b = strconv.AppendInt(b, int64(tablet), 10)
	b = append(b, "/k"...)
	return strconv.AppendInt(b, int64(row), 10)
}

// rowKey renders a row's key as a string: the operation history's register
// key and the not-found error's text.
func rowKey(tablet, row int) string {
	var buf [48]byte
	return string(appendRowKey(buf[:0], tablet, row))
}

// keyLen is the length of rowKey(tablet, row).
func keyLen(tablet, row int) int {
	var buf [48]byte
	return len(appendRowKey(buf[:0], tablet, row))
}

// bootstrapValue generates a row's initial content: a deterministic first
// byte (tests and scan predicates rely on it) followed by incompressible
// per-row noise — bootstrap data models already-compressed historical
// payloads, so base SSTables do not shrink further under block compression.
// Each call returns a fresh row, so a caller may keep or modify it.
func bootstrapValue(t, i, n int) []byte {
	val := make([]byte, n)
	fillBootstrap(val, t, i)
	return val
}

// bootstrapFirst is the first byte of row i of tablet t's bootstrap content.
func bootstrapFirst(t, i int) byte { return byte(uint64(t)*11 + uint64(i)*17) }

// The bootstrap noise of a row is one 64-bit LCG stream: byte j ≥ 1 is bits
// 33–40 of the stream's j-th state. lcgMul8 and lcgAdd8 step a state eight
// places at once.
const (
	lcgMul  = 6364136223846793005
	lcgAdd  = 1442695040888963407
	lcgMul8 = 0xb59dda5f38413d21
	lcgAdd8 = 0x5b21778e3c8666a8
)

// fillBootstrap writes row i of tablet t's bootstrap content into val. Seals
// generate every base row this way, so the stream runs as eight interleaved
// lanes whose multiplies do not wait on each other; the bytes are those of
// stepping one state at a time.
func fillBootstrap(val []byte, t, i int) {
	if len(val) == 0 {
		return
	}
	val[0] = bootstrapFirst(t, i)
	x := uint64(t)*2654435761 + uint64(i)*40503 + 12345
	rest := val[1:]
	x0 := x*lcgMul + lcgAdd
	x1 := x0*lcgMul + lcgAdd
	x2 := x1*lcgMul + lcgAdd
	x3 := x2*lcgMul + lcgAdd
	x4 := x3*lcgMul + lcgAdd
	x5 := x4*lcgMul + lcgAdd
	x6 := x5*lcgMul + lcgAdd
	x7 := x6*lcgMul + lcgAdd
	j := 0
	for ; j+8 <= len(rest); j += 8 {
		binary.LittleEndian.PutUint64(rest[j:], x0>>33&0xff|x1>>33&0xff<<8|x2>>33&0xff<<16|x3>>33&0xff<<24|
			x4>>33&0xff<<32|x5>>33&0xff<<40|x6>>33&0xff<<48|x7>>33&0xff<<56)
		x0, x1, x2, x3 = x0*lcgMul8+lcgAdd8, x1*lcgMul8+lcgAdd8, x2*lcgMul8+lcgAdd8, x3*lcgMul8+lcgAdd8
		x4, x5, x6, x7 = x4*lcgMul8+lcgAdd8, x5*lcgMul8+lcgAdd8, x6*lcgMul8+lcgAdd8, x7*lcgMul8+lcgAdd8
	}
	for x = x0; j < len(rest); j++ {
		rest[j] = byte(x >> 33)
		x = x*lcgMul + lcgAdd
	}
}

// NumTablets returns the tablet count.
func (db *DB) NumTablets() int { return db.cfg.Tablets }

// RowsPerTablet returns the rows per tablet.
func (db *DB) RowsPerTablet() int { return db.cfg.RowsPerTablet }

// PickRow draws a Zipf-popular row index.
func (db *DB) PickRow() int { return db.zipf.Next() }

// Machines exposes the tablet-server fleet.
func (db *DB) Machines() []*cluster.Machine { return db.mgr.Machines() }

// DFS exposes the backing file system (for inventory and stats).
func (db *DB) DFS() *storage.DFS { return db.dfs }

// waitIfCompacting blocks the op while the tablet's major compaction runs,
// annotating the wait as remote work (compaction happens in remote storage).
func (db *DB) waitIfCompacting(p *sim.Proc, tr *trace.Trace, tab *tablet) {
	for tab.compacting != nil && !tab.compacting.Fired() {
		start := p.Now()
		p.Wait(tab.compacting)
		platform.AnnotateRemote(tr, start, p.Now())
	}
	// A tablet freshly reassigned after a server crash is unavailable until
	// its commit-log replay completes; the wait is remote work too.
	for tab.recovering != nil && !tab.recovering.Fired() {
		start := p.Now()
		p.Wait(tab.recovering)
		platform.AnnotateRemote(tr, start, p.Now())
	}
}

// ErrPartitioned reports an operation refused because the tablet's server is
// partitioned away from the cluster and recovery is off (or has nowhere to
// move the tablet). The failure is definite: nothing executed.
var ErrPartitioned = fmt.Errorf("bigtable: tablet server partitioned")

// partitionCheck gates an operation on the tablet's server connectivity.
// With the BrokenPartitionWrites fixture the isolated server (wrongly) keeps
// serving; otherwise ops against a partitioned server fail definite —
// PartitionRecovery moves tablets off partitioned servers at cut time, so
// under recovery this only fires in the window before reassignment.
func (db *DB) partitionCheck(tab *tablet) error {
	if db.partitioned[tab.serverIdx] && !db.cfg.BrokenPartitionWrites {
		return fmt.Errorf("%w: server %d owns tablet %d", ErrPartitioned, tab.serverIdx, tab.id)
	}
	return nil
}

// get is the un-recorded implementation of Get.
func (db *DB) get(p *sim.Proc, tr *trace.Trace, t, row int) ([]byte, error) {
	if t < 0 || t >= len(db.tablets) {
		return nil, fmt.Errorf("bigtable: tablet %d out of range", t)
	}
	tab := db.tablets[t]
	if err := db.partitionCheck(tab); err != nil {
		return nil, err
	}
	db.waitIfCompacting(p, tr, tab)
	db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, tr, db.getRecipe)
	if v, ok := tab.mem[row]; ok {
		db.Gets++
		return v, nil
	}
	for _, s := range tab.imm {
		if v, ok := s.data[row]; ok {
			db.Gets++
			return v, nil
		}
	}
	// Probe SSTables newest-first; each probe reads one 16 KiB block. The
	// per-table Bloom filter skips tables that cannot contain the key.
	var buf [48]byte
	key := appendRowKey(buf[:0], t, row)
	for _, s := range tab.ssts {
		if s.filter != nil && !s.filter.MayContainBytes(key) {
			db.BloomSkips++
			continue
		}
		v, ok := s.data[row]
		inBase := !ok && s.base != nil && s.base.has(row)
		ioStart := p.Now()
		blockOff := int64(0)
		if s.bytes > 16<<10 {
			blockOff = int64(db.rng.Intn(int(s.bytes>>14))) << 14
		}
		blockLen := min64(16<<10, s.bytes)
		d, _, err := db.dfs.Read(s.file, blockOff, blockLen)
		if err != nil {
			return nil, err
		}
		p.Sleep(d)
		platform.AnnotateIO(tr, ioStart, p.Now())
		if ok {
			db.Gets++
			return v, nil
		}
		if inBase {
			db.Gets++
			return bootstrapValue(t, row, int(db.cfg.ValueBytes)), nil
		}
	}
	return nil, fmt.Errorf("%w: %q", storage.ErrNotFound, rowKey(t, row))
}

// put is the un-recorded implementation of Put.
func (db *DB) put(p *sim.Proc, tr *trace.Trace, t, row int, value []byte) error {
	if t < 0 || t >= len(db.tablets) {
		return fmt.Errorf("bigtable: tablet %d out of range", t)
	}
	tab := db.tablets[t]
	if err := db.partitionCheck(tab); err != nil {
		return err
	}
	db.waitIfCompacting(p, tr, tab)
	db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, tr, db.putRecipe)

	cp := make([]byte, len(value))
	copy(cp, value)
	if db.partitioned[tab.serverIdx] {
		// BROKEN (fixture, BrokenPartitionWrites): the isolated server cannot
		// reach the shared commit log but acknowledges the write from its
		// local memtable anyway. The heal-time fencing rebuild replays only
		// the log, so this acknowledged write is doomed to vanish.
		old := int64(len(tab.mem[row]))
		tab.mem[row] = cp
		tab.memSize += int64(len(cp)) - old
		db.Puts++
		return nil
	}

	// Commit-log append: replicated write into the shared storage layer,
	// failing over to the next live chunkserver if the tablet's usual log
	// server is down.
	ioStart := p.Now()
	logBytes := int64(len(value)) + 64
	p.Sleep(db.logServer(tab).RawAccess(storage.SSD, logBytes, true))
	platform.AnnotateIO(tr, ioStart, p.Now())

	// The record and the memtable insert land atomically after the log IO
	// (the kernel only switches procs at park points), so a crash either
	// sees both or neither.
	seq := tab.nextSeq
	tab.nextSeq++
	tab.log = append(tab.log, logRec{seq: seq, row: row, value: cp})
	tab.logBytes += logBytes
	old := int64(len(tab.mem[row]))
	tab.mem[row] = cp
	tab.memSize += int64(len(cp)) - old
	tab.memPuts++
	db.Puts++
	if tab.memPuts >= db.cfg.FlushEvery {
		db.flush(tab)
	}
	return nil
}

// Scan merges rows [start, start+ScanRows) across memtable and SSTables and
// returns the count matching a real predicate (first byte odd).
func (db *DB) Scan(p *sim.Proc, tr *trace.Trace, t, start int) (int, error) {
	release, admitErr := db.admitOp(t)
	if admitErr != nil {
		return 0, admitErr
	}
	defer release()
	if t < 0 || t >= len(db.tablets) {
		return 0, fmt.Errorf("bigtable: tablet %d out of range", t)
	}
	tab := db.tablets[t]
	if err := db.partitionCheck(tab); err != nil {
		return 0, err
	}
	db.waitIfCompacting(p, tr, tab)
	db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, tr, db.scanRecipe)

	// Stream the scanned range from the base sstable: the logical range is
	// scaled down by the table's compression ratio to the on-DFS bytes.
	ioStart := p.Now()
	base := tab.ssts[len(tab.ssts)-1]
	scanBytes := int64(db.cfg.ScanRows) * db.cfg.ValueBytes
	if base.rawBytes > 0 {
		scanBytes = scanBytes * base.bytes / base.rawBytes
	}
	off := int64(start%db.cfg.RowsPerTablet) * db.cfg.ValueBytes
	if off+scanBytes > base.bytes {
		off = 0
	}
	d, _, err := db.dfs.Read(base.file, off, min64(scanBytes, base.bytes))
	if err != nil {
		return 0, err
	}
	p.Sleep(d)
	platform.AnnotateIO(tr, ioStart, p.Now())

	matched := 0
	for i := 0; i < db.cfg.ScanRows; i++ {
		row := (start + i) % db.cfg.RowsPerTablet
		if b, ok := db.firstByte(tab, row); ok && b%2 == 1 {
			matched++
		}
	}
	db.Scans++
	return matched, nil
}

// firstByte resolves an in-range row through the merge hierarchy without IO
// (used by scans after the range has been streamed) and returns its first
// byte, reading a virtual base row's without building it; ok is false for
// an empty row.
func (db *DB) firstByte(tab *tablet, row int) (b byte, ok bool) {
	v, found := tab.mem[row]
	for i := 0; !found && i < len(tab.imm); i++ {
		v, found = tab.imm[i].data[row]
	}
	for i := 0; !found && i < len(tab.ssts); i++ {
		s := tab.ssts[i]
		if v, found = s.data[row]; !found && s.base != nil {
			return bootstrapFirst(tab.id, row), db.cfg.ValueBytes > 0
		}
	}
	if len(v) == 0 {
		return 0, false
	}
	return v[0], true
}

// flush snapshots the memtable and writes it to the DFS as a new SSTable in
// the background (minor compaction). Serving continues from the immutable
// snapshot meanwhile. The commit log is truncated only once the flush is
// durable — truncating at snapshot time would lose the snapshotted writes if
// the server crashed mid-flush (the brokenLogTruncateEarly fixture).
func (db *DB) flush(tab *tablet) {
	snap := &sstable{
		file: fmt.Sprintf("bt/tablet%d/sst%d", tab.id, tab.nextSST),
		data: tab.mem,
	}
	snapSeq := tab.nextSeq - 1
	epoch := tab.epoch
	tab.nextSST++
	tab.mem = map[int][]byte{}
	tab.memSize = 0
	tab.memPuts = 0
	tab.imm = append([]*sstable{snap}, tab.imm...)
	tab.flushPending = append(tab.flushPending, snapSeq)
	if db.brokenLogTruncateEarly {
		// BROKEN (fixture): drop the snapshotted records before they are
		// durable.
		db.truncateLog(tab, snapSeq)
	}

	db.env.K.Go("bt-minor-compaction", func(p *sim.Proc) {
		db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, nil, db.minorRecipe)
		db.seal(snap, tab.idx) // real block compression + Bloom filter
		db.CompressedBytes += snap.bytes
		db.RawBytes += snap.rawBytes
		if _, err := db.dfs.Create(snap.file, snap.bytes); err != nil {
			panic(fmt.Sprintf("bigtable: flush: %v", err))
		}
		if tab.epoch != epoch {
			// The tablet was reassigned mid-flush: the crash already rebuilt
			// this snapshot's writes from the commit log on the new server, so
			// promoting the orphan would resurrect a stale epoch's state.
			db.dfs.Delete(snap.file)
			return
		}
		// Promote snapshot to a real SSTable.
		for i, s := range tab.imm {
			if s == snap {
				tab.imm = append(tab.imm[:i], tab.imm[i+1:]...)
				break
			}
		}
		tab.ssts = append([]*sstable{snap}, tab.ssts...)
		tab.flushes++
		db.MinorCompactions++
		db.mMinorCompactions.Inc()
		// The snapshot is durable: advance durableSeq over the completed
		// prefix of pending flushes (they can finish out of order) and
		// truncate the replay log up to it.
		tab.flushDone[snapSeq] = true
		for len(tab.flushPending) > 0 && tab.flushDone[tab.flushPending[0]] {
			seq := tab.flushPending[0]
			delete(tab.flushDone, seq)
			tab.flushPending = tab.flushPending[1:]
			if seq > tab.durableSeq {
				tab.durableSeq = seq
			}
			if !db.brokenReplayDup {
				db.truncateLog(tab, seq)
			}
		}
		if tab.flushes%db.cfg.MajorEvery == 0 && tab.compacting == nil {
			db.major(tab)
		}
	})
}

// truncateLog drops commit-log records with seq <= upto.
func (db *DB) truncateLog(tab *tablet, upto int64) {
	i := 0
	for i < len(tab.log) && tab.log[i].seq <= upto {
		tab.logBytes -= int64(len(tab.log[i].value)) + 64
		i++
	}
	tab.log = tab.log[i:]
}

// major merges a tablet's SSTables into one in remote storage, blocking the
// tablet's operations until it completes. The input set is snapshotted up
// front: a minor compaction already in flight when the major starts can
// complete mid-merge and prepend a new SSTable, which must survive —
// replacing the live list wholesale would silently drop its acknowledged
// writes.
func (db *DB) major(tab *tablet) {
	tab.compacting = sim.NewSignal(db.env.K)
	inputs := append([]*sstable(nil), tab.ssts...)
	db.env.K.Go("bt-major-compaction", func(p *sim.Proc) {
		// The summed overlay key count bounds the merged overlay's size.
		rows := 0
		for _, s := range inputs {
			rows += len(s.data)
		}
		merged := &sstable{
			file: fmt.Sprintf("bt/tablet%d/sst%d", tab.id, tab.nextSST),
			data: make(map[int][]byte, rows),
		}
		tab.nextSST++
		// Merge oldest-to-newest so newer values win. The oldest input
		// carries the tablet's base index, which the merged table keeps:
		// its overlay holds only the rows some input overrode.
		var readTime time.Duration
		for i := len(inputs) - 1; i >= 0; i-- {
			s := inputs[i]
			d, _, err := db.dfs.Read(s.file, 0, s.bytes)
			if err != nil {
				panic(fmt.Sprintf("bigtable: major read: %v", err))
			}
			readTime += d
			if s.base != nil {
				merged.base = s.base
			}
			for k, v := range s.data {
				merged.data[k] = v
			}
		}
		p.Sleep(readTime)
		db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, nil, db.majorRecipe)
		db.seal(merged, tab.idx)
		if _, err := db.dfs.Create(merged.file, merged.bytes); err != nil {
			panic(fmt.Sprintf("bigtable: major write: %v", err))
		}
		for _, s := range inputs {
			if err := db.dfs.Delete(s.file); err != nil {
				panic(fmt.Sprintf("bigtable: major delete: %v", err))
			}
		}
		// Keep any SSTables flushed since the merge started (newest first),
		// with the merged table as the new oldest.
		inputSet := map[*sstable]bool{}
		for _, s := range inputs {
			inputSet[s] = true
		}
		var kept []*sstable
		for _, s := range tab.ssts {
			if !inputSet[s] {
				kept = append(kept, s)
			}
		}
		tab.ssts = append(kept, merged)
		db.MajorCompactions++
		db.mMajorCompactions.Inc()
		tab.compacting.Fire()
		tab.compacting = nil
	})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// logServer returns the chunkserver holding the tablet's commit log,
// failing over to the next live one when it is down (all down: fall back to
// the home server — the write stalls on nothing, modeling a buffered log).
func (db *DB) logServer(tab *tablet) *storage.TieredStore {
	home := tab.id % db.cfg.Chunkservers
	for off := 0; off < db.cfg.Chunkservers; off++ {
		i := (home + off) % db.cfg.Chunkservers
		if !db.dfs.ServerDown(i) {
			return db.dfs.Servers()[i]
		}
	}
	return db.dfs.Servers()[home]
}

// TabletServer returns the machine index currently serving tablet t.
func (db *DB) TabletServer(t int) (int, error) {
	if t < 0 || t >= len(db.tablets) {
		return 0, fmt.Errorf("bigtable: tablet %d out of range", t)
	}
	return db.tablets[t].serverIdx, nil
}

// TabletServerDown reports whether tablet server i is failed.
func (db *DB) TabletServerDown(i int) bool { return db.downServers[i] }

// FailTabletServer injects a tablet-server crash: the server's memtables are
// lost with it, so every tablet it owned is reassigned round-robin to the
// surviving servers, and each reassigned tablet replays its un-flushed
// commit log from the DFS before serving again (ops arriving mid-recovery
// block on the replay, annotated as remote work). Durable state — SSTables
// and the commit log — lives in the DFS and survives, so no acknowledged
// write is lost. Fails if it would take down the last live server.
func (db *DB) FailTabletServer(i int) error {
	machines := db.mgr.Machines()
	if i < 0 || i >= len(machines) {
		return fmt.Errorf("bigtable: tablet server %d out of range", i)
	}
	if db.downServers[i] {
		return nil
	}
	if len(db.liveServers(i)) == 0 {
		return fmt.Errorf("bigtable: cannot fail server %d: no live servers remain", i)
	}
	db.downServers[i] = true
	db.reassignFrom(i)
	return nil
}

// liveServers returns the machine indices that are neither down nor
// partitioned, excluding `except` — the servers the master can actually hand
// tablets to.
func (db *DB) liveServers(except int) []int {
	var live []int
	for m := range db.mgr.Machines() {
		if m != except && !db.downServers[m] && !db.partitioned[m] {
			live = append(live, m)
		}
	}
	return live
}

// reassignFrom moves every tablet owned by server i to the reachable live
// servers, rebuilding each from its commit log (crash semantics: epoch
// fencing aborts the old owner's in-flight flushes, the replay dedup check
// flags records already durable). Tablets stay put if no server can take
// them.
func (db *DB) reassignFrom(i int) {
	live := db.liveServers(i)
	if len(live) == 0 {
		return
	}
	machines := db.mgr.Machines()
	for _, tab := range db.tablets {
		if tab.serverIdx != i {
			continue
		}
		ni := live[tab.id%len(live)]
		tab.serverIdx = ni
		tab.server = machines[ni]
		db.Reassignments++
		db.mTabletMoves.Inc()
		db.rebuildFromLog(tab)
		db.recoverTablet(tab)
	}
}

// PartitionTabletServer cuts tablet server i off from the cluster: the
// master, DFS and clients cannot reach it (and it cannot reach them). With
// PartitionRecovery the master immediately reassigns its tablets to reachable
// servers through the commit-log replay path; otherwise the tablets ride out
// the partition unavailable. The BrokenPartitionWrites fixture instead lets
// the isolated server keep acknowledging writes (see put).
func (db *DB) PartitionTabletServer(i int) error {
	if i < 0 || i >= len(db.mgr.Machines()) {
		return fmt.Errorf("bigtable: tablet server %d out of range", i)
	}
	if db.partitioned[i] {
		return nil
	}
	db.partitioned[i] = true
	if db.cfg.PartitionRecovery && !db.cfg.BrokenPartitionWrites {
		db.reassignFrom(i)
	}
	return nil
}

// HealTabletServer reconnects a partitioned tablet server. Under the
// BrokenPartitionWrites fixture the master fences the returning server by
// rebuilding its tablets from the shared commit log — the split-brain
// resolution that discards the isolated memtable, including any writes the
// server wrongly acknowledged without logging them.
func (db *DB) HealTabletServer(i int) error {
	if i < 0 || i >= len(db.mgr.Machines()) {
		return fmt.Errorf("bigtable: tablet server %d out of range", i)
	}
	if !db.partitioned[i] {
		return nil
	}
	delete(db.partitioned, i)
	if db.cfg.BrokenPartitionWrites {
		for _, tab := range db.tablets {
			if tab.serverIdx == i {
				db.rebuildFromLog(tab)
				db.recoverTablet(tab)
			}
		}
	}
	return nil
}

// rebuildFromLog applies crash semantics to a reassigned tablet: the crashed
// server's volatile state — the active memtable and any still-flushing
// snapshots — is lost, and the new server's memtable is rebuilt by replaying
// the commit log in sequence order. SSTables live in the DFS and survive.
// The rebuild itself is instantaneous state surgery; recoverTablet separately
// burns the replay's IO and CPU time while the tablet blocks.
func (db *DB) rebuildFromLog(tab *tablet) {
	tab.epoch++ // aborts in-flight flush promotions from the dead server
	tab.mem = map[int][]byte{}
	tab.memSize = 0
	tab.imm = nil
	tab.flushPending = nil
	tab.flushDone = map[int64]bool{}
	dups := 0
	for _, rec := range tab.log {
		if rec.seq <= tab.durableSeq {
			// Replaying a record that is already durable in an SSTable: for
			// last-writer-wins puts the replay happens to be idempotent, but
			// it is a protocol violation (re-applied increments or appends
			// would corrupt state), so it is flagged structurally.
			dups++
		}
		old := int64(len(tab.mem[rec.row]))
		tab.mem[rec.row] = rec.value
		tab.memSize += int64(len(rec.value)) - old
	}
	tab.memPuts = len(tab.log)
	if dups > 0 {
		db.ReplayDups += dups
		if db.rec != nil {
			db.rec.Violate("duplicate-replay", fmt.Sprintf("t%d", tab.id),
				"tablet %d replayed %d commit-log records already durable (durableSeq %d)",
				tab.id, dups, tab.durableSeq)
		}
	}
}

// RecoverTabletServer brings a failed tablet server back into the live set.
// Tablets stay where they were reassigned (like production, rebalancing is a
// separate concern); the server is simply eligible for future reassignments.
func (db *DB) RecoverTabletServer(i int) error {
	if i < 0 || i >= len(db.mgr.Machines()) {
		return fmt.Errorf("bigtable: tablet server %d out of range", i)
	}
	delete(db.downServers, i)
	return nil
}

// recoverTablet replays the tablet's un-flushed commit log on its new server:
// re-read the log bytes from the DFS chunkserver and burn the minor-
// compaction recipe to rebuild the memtable. The tablet blocks ops until the
// replay finishes.
func (db *DB) recoverTablet(tab *tablet) {
	if tab.recovering != nil && !tab.recovering.Fired() {
		return
	}
	sig := sim.NewSignal(db.env.K)
	tab.recovering = sig
	replay := tab.logBytes
	db.env.K.Go("bt-log-recovery", func(p *sim.Proc) {
		if replay > 0 {
			p.Sleep(db.logServer(tab).RawAccess(storage.SSD, replay, false))
		}
		db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, nil, db.minorRecipe)
		db.Recoveries++
		db.mRecoveries.Inc()
		sig.Fire()
		if tab.recovering == sig {
			tab.recovering = nil
		}
	})
}
