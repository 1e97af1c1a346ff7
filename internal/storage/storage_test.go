package storage

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hyperprof/internal/taxonomy"
)

func TestTierAccessTime(t *testing.T) {
	p := TierParams{Latency: time.Millisecond, BytesPerSec: 1e6}
	if got := p.AccessTime(0); got != time.Millisecond {
		t.Fatalf("zero-byte access = %v", got)
	}
	if got := p.AccessTime(1e6); got != time.Millisecond+time.Second {
		t.Fatalf("1MB access = %v", got)
	}
	if got := p.AccessTime(-5); got != time.Millisecond {
		t.Fatalf("negative size access = %v", got)
	}
}

func TestDefaultTierOrdering(t *testing.T) {
	params := DefaultTierParams()
	const size = 1 << 20
	ram := params[RAM].AccessTime(size)
	ssd := params[SSD].AccessTime(size)
	hdd := params[HDD].AccessTime(size)
	if !(ram < ssd && ssd < hdd) {
		t.Fatalf("tier ordering violated: ram=%v ssd=%v hdd=%v", ram, ssd, hdd)
	}
}

func TestCapacitiesValidate(t *testing.T) {
	good := Capacities{RAM: 1, SSD: 1, HDD: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Capacities{RAM: 1, SSD: 0, HDD: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero SSD capacity should fail")
	}
}

// lruStore returns an LRU store whose RAM tier, the cache under test, holds
// capacity bytes over SSD and HDD tiers that hold everything the tests write.
func lruStore(t *testing.T, capacity int64) *TieredStore {
	t.Helper()
	s, err := NewTieredStore(Capacities{RAM: capacity, SSD: 1 << 30, HDD: 1 << 31}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLRUBasics(t *testing.T) {
	const a, b, c = 1, 2, 3
	s := lruStore(t, 100)
	s.Write(a, 40)
	s.Write(b, 40)
	if !inRAM(s, a) || !inRAM(s, b) {
		t.Fatal("entries missing")
	}
	if s.Used(RAM) != 80 || s.ram.Len() != 2 {
		t.Fatalf("used=%d len=%d", s.Used(RAM), s.ram.Len())
	}
	// Touch a so b is least recently used; adding 40 more evicts b.
	if _, tier, _ := s.Read(a); tier != RAM {
		t.Fatalf("cached a read from %v", tier)
	}
	s.Write(c, 40)
	if inRAM(s, b) {
		t.Fatal("b should be evicted")
	}
	if !inRAM(s, a) || !inRAM(s, c) || s.ram.Len() != 2 {
		t.Fatalf("want exactly a and c resident, len=%d", s.ram.Len())
	}
}

func TestLRUUpdateSize(t *testing.T) {
	s := lruStore(t, 100)
	s.Write(1, 30)
	s.Write(1, 60)
	if s.Used(RAM) != 60 || s.ram.Len() != 1 || s.Used(SSD) != 60 {
		t.Fatalf("RAM used=%d len=%d, SSD used=%d", s.Used(RAM), s.ram.Len(), s.Used(SSD))
	}
}

func TestLRUOversizedEntryNotCached(t *testing.T) {
	const big, x = 1, 2
	s := lruStore(t, 100)
	s.Write(big, 200)
	if inRAM(s, big) || s.Used(RAM) != 0 {
		t.Fatal("oversized entry cached")
	}
	// Growing a cached entry past the capacity drops it.
	s.Write(x, 50)
	s.Write(x, 500)
	if inRAM(s, x) || s.ram.Len() != 0 || s.Used(RAM) != 0 {
		t.Fatalf("stale entry kept, len=%d used=%d", s.ram.Len(), s.Used(RAM))
	}
}

func TestLRURemove(t *testing.T) {
	s := lruStore(t, 100)
	s.Write(1, 10)
	s.Delete(1)
	s.Delete(2) // no-op
	if s.Used(RAM) != 0 || s.Used(SSD) != 0 || inRAM(s, 1) {
		t.Fatal("remove failed")
	}
}

func TestLRUInvariantProperty(t *testing.T) {
	// Property: each cache's used bytes never exceed its capacity and equal
	// the sum of its linked objects' sizes, walked both ways, under
	// arbitrary operation sequences.
	if err := quick.Check(func(ops []uint16) bool {
		s, err := NewTieredStore(Capacities{RAM: 500, SSD: 1500, HDD: 1 << 20}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			key := uint64(op % 37)
			switch op % 3 {
			case 0:
				s.Write(key, int64(op%120))
			case 1:
				s.Read(key)
			case 2:
				s.Delete(key)
			}
			lruState(t, s, &s.ram)
			lruState(t, s, &s.ssd)
			storedObjects(t, s)
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUAddSteadyStateAllocs pins the slab's recency links: once a full
// RAM tier has churned, writing a stored object that evicts another
// allocates nothing.
func TestLRUAddSteadyStateAllocs(t *testing.T) {
	s := lruStore(t, 16*100)
	const keys = 64
	i := 0
	write := func() {
		s.Write(uint64(i%keys), 100)
		i++
	}
	for j := 0; j < 10*keys; j++ {
		write()
	}
	if n := testing.AllocsPerRun(1000, write); n != 0 {
		t.Fatalf("evicting Write allocates %v objects, want 0", n)
	}
	if s.ram.Len() != 16 || s.Used(RAM) != 1600 {
		t.Fatalf("len=%d used=%d, want 16 entries / 1600 bytes", s.ram.Len(), s.Used(RAM))
	}
}

func testStore(t *testing.T) *TieredStore {
	t.Helper()
	s, err := NewTieredStore(Capacities{RAM: 1 << 20, SSD: 8 << 20, HDD: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTieredReadPromotion(t *testing.T) {
	const obj = 1 << 32 // above every fill key
	s := testStore(t)
	if _, err := s.Write(obj, 1000); err != nil {
		t.Fatal(err)
	}
	// First read: RAM (write landed in the buffer).
	_, tier, err := s.Read(obj)
	if err != nil || tier != RAM {
		t.Fatalf("read after write: tier=%v err=%v", tier, err)
	}
	// Evict from RAM by filling it.
	for i := uint64(0); i < 2000; i++ {
		if _, err := s.Write(i, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if inRAM(s, obj) {
		t.Fatal("obj should be evicted from RAM")
	}
	// Next read hits SSD and promotes back to RAM.
	_, tier, err = s.Read(obj)
	if err != nil || tier != SSD {
		t.Fatalf("ssd read: tier=%v err=%v", tier, err)
	}
	if _, tier, _ = s.Read(obj); tier != RAM {
		t.Fatalf("promotion failed: tier=%v", tier)
	}
}

func TestTieredHDDReadAfterFullEviction(t *testing.T) {
	const cold = 1 << 32 // above every hot key
	s := testStore(t)
	s.Write(cold, 1000)
	// Flood both caches.
	for i := uint64(0); i < 20000; i++ {
		s.Write(i, 1000)
	}
	_, tier, err := s.Read(cold)
	if err != nil || tier != HDD {
		t.Fatalf("cold read: tier=%v err=%v", tier, err)
	}
	stats := s.Stats(HDD)
	if stats.Reads != 1 || stats.BytesRead != 1000 {
		t.Fatalf("hdd stats = %+v", stats)
	}
}

func TestTieredReadMissing(t *testing.T) {
	s := testStore(t)
	if _, _, err := s.Read(42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestTieredWriteErrors(t *testing.T) {
	s, err := NewTieredStore(Capacities{RAM: 100, SSD: 100, HDD: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(1, -1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := s.Write(2, 2000); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull write err = %v", err)
	}
	// Rewriting the same key accounts the delta, not the sum.
	if _, err := s.Write(3, 600); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(3, 900); err != nil {
		t.Fatalf("rewrite should fit: %v", err)
	}
	if s.Used(HDD) != 900 {
		t.Fatalf("hdd used = %d", s.Used(HDD))
	}
}

func TestTieredDelete(t *testing.T) {
	s := testStore(t)
	s.Write(1, 500)
	s.Delete(1)
	if s.Has(1) || s.Used(HDD) != 0 {
		t.Fatal("delete incomplete")
	}
	if _, err := s.Size(1); !errors.Is(err, ErrNotFound) {
		t.Fatal("size after delete")
	}
	s.Delete(1) // idempotent
}

func TestRawAccessAccounting(t *testing.T) {
	s := testStore(t)
	d := s.RawAccess(HDD, 1<<20, true)
	if d <= 8*time.Millisecond {
		t.Fatalf("raw hdd write = %v, should include seek+transfer", d)
	}
	if st := s.Stats(HDD); st.Writes != 1 || st.BytesWrit != 1<<20 {
		t.Fatalf("stats = %+v", st)
	}
}

func dfsConfig() DFSConfig {
	return DFSConfig{
		Chunkservers:     8,
		Replication:      3,
		ChunkSize:        1 << 20,
		ServerCapacities: Capacities{RAM: 4 << 20, SSD: 32 << 20, HDD: 10 << 30},
	}
}

func TestDFSCreateReadDelete(t *testing.T) {
	d, err := NewDFS(dfsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("table/part-0", 5<<20); err != nil {
		t.Fatal(err)
	}
	if !d.Exists("table/part-0") {
		t.Fatal("file missing")
	}
	sz, err := d.FileSize("table/part-0")
	if err != nil || sz != 5<<20 {
		t.Fatalf("size = %d err=%v", sz, err)
	}
	dur, tier, err := d.Read("table/part-0", 0, 5<<20)
	if err != nil || dur <= 0 {
		t.Fatalf("read: %v %v", dur, err)
	}
	if tier != RAM {
		t.Fatalf("fresh write should hit RAM buffers, got %v", tier)
	}
	if err := d.Delete("table/part-0"); err != nil {
		t.Fatal(err)
	}
	if d.Exists("table/part-0") {
		t.Fatal("file still exists")
	}
	for _, s := range d.Servers() {
		if s.Used(HDD) != 0 {
			t.Fatal("replica bytes leaked after delete")
		}
	}
}

func TestDFSReadBounds(t *testing.T) {
	d, _ := NewDFS(dfsConfig())
	d.Create("f", 100)
	if _, _, err := d.Read("f", 50, 100); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if _, _, err := d.Read("f", -1, 10); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, _, err := d.Read("ghost", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if dur, _, err := d.Read("f", 10, 0); err != nil || dur != 0 {
		t.Fatalf("zero-length read: %v %v", dur, err)
	}
}

func TestDFSCreateValidation(t *testing.T) {
	d, _ := NewDFS(dfsConfig())
	if _, err := d.Create("f", -1); err == nil {
		t.Fatal("negative size accepted")
	}
	d.Create("f", 10)
	if _, err := d.Create("f", 10); err == nil {
		t.Fatal("duplicate create accepted")
	}
	// Chunk keys hold a 32-bit chunk index under a 32-bit file id.
	if _, err := d.Create("huge", maxChunks*d.ChunkSize()+1); err == nil {
		t.Fatal("file with more than 2^32 chunks accepted")
	}
	d.nextID = maxChunks
	if _, err := d.Create("g", 10); err == nil || d.Exists("g") {
		t.Fatal("create past the last file id accepted")
	}
}

func TestDFSReplication(t *testing.T) {
	d, _ := NewDFS(dfsConfig())
	d.Create("f", 1<<20) // one chunk, 3 replicas
	var total int64
	for _, s := range d.Servers() {
		total += s.Used(HDD)
	}
	if total != 3<<20 {
		t.Fatalf("replicated bytes = %d, want 3MiB", total)
	}
	// Placement must be deterministic.
	r1 := d.replicaServers(nil, "f", 0)
	r2 := d.replicaServers(nil, "f", 0)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("placement not deterministic")
		}
	}
	seen := map[int]bool{}
	for _, s := range r1 {
		if seen[s] {
			t.Fatal("replica placed twice on same server")
		}
		seen[s] = true
	}
}

// TestDFSPlacementMatchesFormattedHash pins replicaServers' inline hash to
// the formula it replaced: FNV-1a over fmt's "%s/%d" of the file name and
// chunk index, start at the hash modulo the server count, then consecutive
// servers. Names follow the BigTable and BigQuery file shapes.
func TestDFSPlacementMatchesFormattedHash(t *testing.T) {
	for _, servers := range []int{3, 8, 17} {
		cfg := dfsConfig()
		cfg.Chunkservers = servers
		d, err := NewDFS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"bt/tablet0/base", "bt/tablet17/sst3", "bq/fact/part-007", "bq/report/small", ""} {
			for _, idx := range []int64{0, 1, 9, 10, 99, 12345, 1<<32 - 1} {
				h := fnv.New64a()
				fmt.Fprintf(h, "%s/%d", name, idx)
				start := int(h.Sum64() % uint64(servers))
				want := []int{start, (start + 1) % servers, (start + 2) % servers}
				if got := d.replicaServers(nil, name, idx); !slices.Equal(got, want) {
					t.Fatalf("%d servers, %q chunk %d: placement %v, want %v", servers, name, idx, got, want)
				}
			}
		}
	}
}

// TestDFSCachedReadAllocs checks that reading a chunk from a replica's RAM
// cache allocates nothing: no formatted key, no placement slice.
func TestDFSCachedReadAllocs(t *testing.T) {
	d, _ := NewDFS(dfsConfig())
	if _, err := d.Create("bt/tablet3/sst1", 3<<20); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, tier, err := d.Read("bt/tablet3/sst1", 1<<20, 4096); err != nil || tier != RAM {
			t.Fatalf("cached read: %v, %v", tier, err)
		}
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("cached chunk Read allocates %v objects, want 0", n)
	}
}

func TestDFSConfigValidation(t *testing.T) {
	cfg := dfsConfig()
	cfg.Chunkservers = 2 // < replication 3
	if _, err := NewDFS(cfg); err == nil {
		t.Fatal("too few chunkservers accepted")
	}
}

func TestDFSTierHitsImproveWithReuse(t *testing.T) {
	d, _ := NewDFS(dfsConfig())
	d.Create("hot", 1<<20)
	for i := 0; i < 10; i++ {
		if _, _, err := d.Read("hot", 0, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	hits := d.TierHits()
	if hits[RAM] < 9 {
		t.Fatalf("RAM hits = %d, want >= 9", hits[RAM])
	}
}

func TestInventoryRatios(t *testing.T) {
	inv := NewInventory()
	// Provision Spanner-like ratio 1:16:164.
	inv.AddServers(taxonomy.Spanner, Capacities{RAM: 1 << 30, SSD: 16 << 30, HDD: 164 << 30}, 100)
	ram, ssd, hdd := inv.Ratios(taxonomy.Spanner)
	if ram != 1 || ssd != 16 || hdd != 164 {
		t.Fatalf("ratios = %v:%v:%v", ram, ssd, hdd)
	}
	if s := inv.RatioString(taxonomy.Spanner); s != "1:16:164" {
		t.Fatalf("ratio string = %q", s)
	}
	if got := inv.Owned(taxonomy.Spanner, RAM); got != 100<<30 {
		t.Fatalf("owned RAM = %d", got)
	}
}

func TestInventoryEmptyPlatform(t *testing.T) {
	inv := NewInventory()
	if r, s, h := inv.Ratios(taxonomy.BigQuery); r != 0 || s != 0 || h != 0 {
		t.Fatal("empty platform should be zeros")
	}
	if inv.RatioString(taxonomy.BigQuery) != "-" {
		t.Fatal("empty ratio string")
	}
}

func TestInventoryAddStore(t *testing.T) {
	inv := NewInventory()
	s, _ := NewTieredStore(Capacities{RAM: 10, SSD: 20, HDD: 30}, nil)
	inv.AddStore(taxonomy.BigTable, s)
	if inv.Owned(taxonomy.BigTable, SSD) != 20 {
		t.Fatal("AddStore did not record capacities")
	}
}

func TestDFSReadFailsOverToSurvivingReplica(t *testing.T) {
	d, _ := NewDFS(dfsConfig())
	d.Create("ha-file", 1<<20)
	primary := d.replicaServers(nil, "ha-file", 0)[0]
	if err := d.FailServer(primary); err != nil {
		t.Fatal(err)
	}
	if got := d.DownServers(); len(got) != 1 || got[0] != primary {
		t.Fatalf("down = %v", got)
	}
	if _, _, err := d.Read("ha-file", 0, 1<<20); err != nil {
		t.Fatalf("read with one replica down: %v", err)
	}
	// Fail the remaining replicas.
	for _, si := range d.replicaServers(nil, "ha-file", 0)[1:] {
		d.FailServer(si)
	}
	if _, _, err := d.Read("ha-file", 0, 1<<20); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("err = %v, want ErrAllReplicasDown", err)
	}
	// Recovery restores service.
	if err := d.RecoverServer(primary); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read("ha-file", 0, 1<<20); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

func TestDFSCreateSkipsDownServers(t *testing.T) {
	d, _ := NewDFS(dfsConfig())
	d.FailServer(0)
	if _, err := d.Create("f", 1<<20); err != nil {
		t.Fatalf("create with one server down: %v", err)
	}
	// Bytes only landed on live replicas.
	if used := d.servers[0].Used(HDD); used != 0 {
		t.Fatalf("down server stored %d bytes", used)
	}
	for i := 1; i < len(d.servers); i++ {
		d.FailServer(i)
	}
	if _, err := d.Create("g", 1<<20); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("err = %v", err)
	}
}

func TestDFSWriteWhileDownReadableAfterRecovery(t *testing.T) {
	d, _ := NewDFS(dfsConfig())
	primary := d.replicaServers(nil, "outage-file", 0)[0]
	if err := d.FailServer(primary); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("outage-file", 1<<20); err != nil {
		t.Fatalf("create during outage: %v", err)
	}
	if err := d.RecoverServer(primary); err != nil {
		t.Fatal(err)
	}
	// The recovered primary holds a stale (empty) replica; the read must
	// fall through to a replica that actually has the chunk.
	if _, _, err := d.Read("outage-file", 0, 1<<20); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

func TestDFSDeleteWhileServerDown(t *testing.T) {
	d, _ := NewDFS(dfsConfig())
	if _, err := d.Create("doomed", 1<<20); err != nil {
		t.Fatal(err)
	}
	victim := d.replicaServers(nil, "doomed", 0)[0]
	if err := d.FailServer(victim); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("doomed"); err != nil {
		t.Fatalf("delete during outage: %v", err)
	}
	if d.Exists("doomed") {
		t.Fatal("file still exists after delete")
	}
	// The name is immediately reusable, and the fresh file's bytes land
	// only on live replicas.
	if _, err := d.Create("doomed", 2<<20); err != nil {
		t.Fatalf("re-create during outage: %v", err)
	}
	if used := d.servers[victim].Used(HDD); used != 0 {
		t.Fatalf("down server stored %d bytes", used)
	}
	if err := d.RecoverServer(victim); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read("doomed", 0, 2<<20); err != nil {
		t.Fatalf("read re-created file after recovery: %v", err)
	}
}

func TestDFSFailServerValidation(t *testing.T) {
	d, _ := NewDFS(dfsConfig())
	if err := d.FailServer(-1); err == nil {
		t.Fatal("bad index accepted")
	}
	if err := d.RecoverServer(99); err == nil {
		t.Fatal("bad index accepted")
	}
}
