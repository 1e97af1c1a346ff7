package storage

import (
	"errors"
	"fmt"
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

func TestLRUBasics(t *testing.T) {
	c := newLRU(100)
	c.Add("a", 40)
	c.Add("b", 40)
	if !c.Contains("a") || !c.Contains("b") {
		t.Fatal("entries missing")
	}
	if c.Used() != 80 || c.Len() != 2 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
	// Touch "a" so "b" is least recently used; adding 40 more evicts "b".
	c.Contains("a")
	c.Add("c", 40)
	if c.Peek("b") {
		t.Fatal("b should be evicted")
	}
	if !c.Peek("a") || !c.Peek("c") || c.Len() != 2 {
		t.Fatalf("want exactly a and c resident, len=%d", c.Len())
	}
}

func TestLRUUpdateSize(t *testing.T) {
	c := newLRU(100)
	c.Add("a", 30)
	c.Add("a", 60)
	if c.Used() != 60 || c.Len() != 1 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
}

func TestLRUOversizedEntryNotCached(t *testing.T) {
	c := newLRU(100)
	c.Add("big", 200)
	if c.Peek("big") || c.Used() != 0 {
		t.Fatal("oversized entry cached")
	}
	// Replacing an existing entry with an oversized one drops it.
	c.Add("x", 50)
	c.Add("x", 500)
	if c.Peek("x") || c.Len() != 0 || c.Used() != 0 {
		t.Fatalf("stale entry kept, len=%d used=%d", c.Len(), c.Used())
	}
}

func TestLRURemove(t *testing.T) {
	c := newLRU(100)
	c.Add("a", 10)
	c.Remove("a")
	c.Remove("missing") // no-op
	if c.Used() != 0 || c.Peek("a") {
		t.Fatal("remove failed")
	}
}

func TestLRUInvariantProperty(t *testing.T) {
	// Property: used never exceeds capacity, and used equals the sum of
	// resident entry sizes, under arbitrary operation sequences.
	if err := quick.Check(func(ops []uint16) bool {
		c := newLRU(500)
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%37)
			switch op % 3 {
			case 0:
				c.Add(key, int64(op%120))
			case 1:
				c.Contains(key)
			case 2:
				c.Remove(key)
			}
			if c.Used() > 500 {
				return false
			}
			var sum int64
			for _, e := range c.entries {
				sum += e.size
			}
			if sum != c.Used() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUAddSteadyStateAllocs pins the recycling of evicted entries: once a
// full cache has churned, inserting a new key that evicts an old one
// allocates nothing.
func TestLRUAddSteadyStateAllocs(t *testing.T) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	c := newLRU(16 * 100)
	i := 0
	add := func() {
		c.Add(keys[i%len(keys)], 100)
		i++
	}
	for j := 0; j < 10*len(keys); j++ {
		add()
	}
	if n := testing.AllocsPerRun(1000, add); n != 0 {
		t.Fatalf("evicting Add allocates %v objects, want 0", n)
	}
	if c.Len() != 16 || c.Used() != 1600 {
		t.Fatalf("len=%d used=%d, want 16 entries / 1600 bytes", c.Len(), c.Used())
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
	s := testStore(t)
	if _, err := s.Write("obj", 1000); err != nil {
		t.Fatal(err)
	}
	// First read: RAM (write landed in the buffer).
	_, tier, err := s.Read("obj")
	if err != nil || tier != RAM {
		t.Fatalf("read after write: tier=%v err=%v", tier, err)
	}
	// Evict from RAM by filling it.
	for i := 0; i < 2000; i++ {
		if _, err := s.Write(fmt.Sprintf("fill%d", i), 1000); err != nil {
			t.Fatal(err)
		}
	}
	if s.ram.Peek("obj") {
		t.Fatal("obj should be evicted from RAM")
	}
	// Next read hits SSD and promotes back to RAM.
	_, tier, err = s.Read("obj")
	if err != nil || tier != SSD {
		t.Fatalf("ssd read: tier=%v err=%v", tier, err)
	}
	if _, tier, _ = s.Read("obj"); tier != RAM {
		t.Fatalf("promotion failed: tier=%v", tier)
	}
}

func TestTieredHDDReadAfterFullEviction(t *testing.T) {
	s := testStore(t)
	s.Write("cold", 1000)
	// Flood both caches.
	for i := 0; i < 20000; i++ {
		s.Write(fmt.Sprintf("hot%d", i), 1000)
	}
	_, tier, err := s.Read("cold")
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
	if _, _, err := s.Read("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestTieredWriteErrors(t *testing.T) {
	s, err := NewTieredStore(Capacities{RAM: 100, SSD: 100, HDD: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("x", -1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := s.Write("big", 2000); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull write err = %v", err)
	}
	// Rewriting the same key accounts the delta, not the sum.
	if _, err := s.Write("a", 600); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("a", 900); err != nil {
		t.Fatalf("rewrite should fit: %v", err)
	}
	if s.Used(HDD) != 900 {
		t.Fatalf("hdd used = %d", s.Used(HDD))
	}
}

func TestTieredDelete(t *testing.T) {
	s := testStore(t)
	s.Write("x", 500)
	s.Delete("x")
	if s.Has("x") || s.Used(HDD) != 0 {
		t.Fatal("delete incomplete")
	}
	if _, err := s.Size("x"); !errors.Is(err, ErrNotFound) {
		t.Fatal("size after delete")
	}
	s.Delete("x") // idempotent
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
	r1 := d.replicaServers("f", 0)
	r2 := d.replicaServers("f", 0)
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
	primary := d.replicaServers("ha-file", 0)[0]
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
	for _, si := range d.replicaServers("ha-file", 0)[1:] {
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
	primary := d.replicaServers("outage-file", 0)[0]
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
	victim := d.replicaServers("doomed", 0)[0]
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
