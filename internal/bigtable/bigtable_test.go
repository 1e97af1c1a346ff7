package bigtable

import (
	"bytes"
	"math"
	"testing"
	"time"

	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Tablets = 4
	cfg.TabletServers = 2
	cfg.RowsPerTablet = 400
	cfg.ScanRows = 50
	return cfg
}

func newDB(t *testing.T, seed uint64) (*platform.Env, *DB) {
	t.Helper()
	env := platform.NewEnv(seed, 1)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return env, db
}

// TestNewValidation checks that degenerate configs, dataset sizes included,
// are config errors, not constructor panics.
func TestNewValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"zero tablets", func(c *Config) { c.Tablets = 0 }},
		{"two chunkservers", func(c *Config) { c.Chunkservers = 2 }},
		{"zero rows per tablet", func(c *Config) { c.RowsPerTablet = 0 }},
		{"rows per tablet past int32", func(c *Config) { c.RowsPerTablet = math.MaxInt32 + 1 }},
		{"negative value bytes", func(c *Config) { c.ValueBytes = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.edit(&cfg)
			if _, err := New(platform.NewEnv(1, 1), cfg); err == nil {
				t.Fatalf("%+v accepted", cfg)
			}
		})
	}
}

func TestGetBootstrapValue(t *testing.T) {
	env, db := newDB(t, 2)
	var got []byte
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		got, err = db.Get(p, nil, 1, 5)
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1024 || got[0] != byte(1*11+5*17) {
		t.Fatalf("value = len %d first %d", len(got), got[0])
	}
}

func TestPutThenGet(t *testing.T) {
	env, db := newDB(t, 3)
	want := []byte("fresh value via memtable")
	var got []byte
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		if err = db.Put(p, nil, 0, 9, want); err != nil {
			return
		}
		got, err = db.Get(p, nil, 0, 9)
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestPutSurvivesFlushAndMajor(t *testing.T) {
	env, db := newDB(t, 4)
	want := []byte("survives all compactions")
	var got []byte
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		if err = db.Put(p, nil, 2, 7, want); err != nil {
			return
		}
		// Drive enough puts to force flushes and a major compaction.
		for i := 0; i < smallConfig().FlushEvery*smallConfig().MajorEvery+5; i++ {
			if err = db.Put(p, nil, 2, 100+i%200, []byte("filler-value")); err != nil {
				return
			}
		}
		p.Sleep(5 * time.Second) // let background compactions drain
		got, err = db.Get(p, nil, 2, 7)
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q after compactions", got)
	}
	if db.MinorCompactions == 0 || db.MajorCompactions == 0 {
		t.Fatalf("compactions: minor=%d major=%d", db.MinorCompactions, db.MajorCompactions)
	}
	// Major compaction collapses the tablet to one SSTable.
	if n := db.SSTableCount(2); n > 2 {
		t.Fatalf("sstables after major = %d", n)
	}
}

func TestNewerValueWinsAfterMajor(t *testing.T) {
	env, db := newDB(t, 5)
	var got []byte
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		db.Put(p, nil, 0, 50, []byte("old"))
		// Force a flush boundary between the two versions.
		for i := 0; i < smallConfig().FlushEvery; i++ {
			db.Put(p, nil, 0, 200+i, []byte("x"))
		}
		db.Put(p, nil, 0, 50, []byte("new"))
		for i := 0; i < smallConfig().FlushEvery*smallConfig().MajorEvery; i++ {
			db.Put(p, nil, 0, 200+i%150, []byte("y"))
		}
		p.Sleep(5 * time.Second)
		got, err = db.Get(p, nil, 0, 50)
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("got %q, want new", got)
	}
}

func TestScanCountsPredicate(t *testing.T) {
	env, db := newDB(t, 6)
	var matched int
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		matched, err = db.Scan(p, nil, 3, 0)
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap first byte = t*11 + i*17; over 50 consecutive i, half odd.
	if matched != 25 {
		t.Fatalf("matched = %d, want 25", matched)
	}
}

func TestMajorCompactionBlocksAndAnnotatesRemote(t *testing.T) {
	env, db := newDB(t, 7)
	var blocked trace.Breakdown
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		// Trigger a major compaction on tablet 0.
		for i := 0; i < smallConfig().FlushEvery*smallConfig().MajorEvery; i++ {
			if err = db.Put(p, nil, 0, i%300, []byte("spam-value")); err != nil {
				return
			}
		}
		// The 4th flush runs ~10ms of CPU before the major starts; wait for
		// the major's window (tens of ms of merge CPU) and probe into it.
		p.Sleep(20 * time.Millisecond)
		tr := env.Tracer.Start(taxonomy.BigTable, p.Now())
		if _, err = db.Get(p, tr, 0, 1); err != nil {
			return
		}
		env.Tracer.Finish(tr, p.Now())
		blocked = tr.ComputeBreakdown()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if db.MajorCompactions == 0 {
		t.Skip("major did not overlap the probe in this configuration")
	}
	if blocked.Remote <= 0 {
		t.Fatalf("get during major has no remote wait: %+v", blocked)
	}
}

func TestProfiledCategoriesCoverTable4(t *testing.T) {
	env, db := newDB(t, 8)
	env.K.Go("client", func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			db.Get(p, nil, i%4, db.PickRow())
			if i%2 == 0 {
				db.Put(p, nil, i%4, db.PickRow(), []byte("workload-value"))
			}
			if i%10 == 0 {
				db.Scan(p, nil, i%4, i)
			}
		}
		p.Sleep(5 * time.Second)
	})
	env.K.Run()
	cb := env.Prof.CategoryBreakdown(taxonomy.BigTable, taxonomy.CoreCompute)
	for _, cat := range []taxonomy.Category{taxonomy.Read, taxonomy.Write, taxonomy.Consensus, taxonomy.Query, taxonomy.Compaction, taxonomy.MiscCore, taxonomy.Uncategorized} {
		if cb[cat] <= 0 {
			t.Errorf("category %q has no cycles: %v", cat, cb)
		}
	}
	bb := env.Prof.BroadBreakdown(taxonomy.BigTable)
	// BigTable is the most tax-heavy database: DCT should exceed CC.
	if bb[taxonomy.DatacenterTax] <= bb[taxonomy.CoreCompute] {
		t.Errorf("broad = %v, want DCT > CC", bb)
	}
}

func TestGetOutOfRange(t *testing.T) {
	env, db := newDB(t, 9)
	env.K.Go("client", func(p *sim.Proc) {
		if _, err := db.Get(p, nil, 99, 0); err == nil {
			t.Error("bad tablet accepted")
		}
		if err := db.Put(p, nil, -1, 0, nil); err == nil {
			t.Error("bad tablet accepted")
		}
		if _, err := db.Scan(p, nil, 99, 0); err == nil {
			t.Error("bad tablet accepted")
		}
	})
	env.K.Run()
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (time.Duration, int, int) {
		env := platform.NewEnv(42, 1)
		db, err := New(env, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		env.K.Go("client", func(p *sim.Proc) {
			for i := 0; i < 60; i++ {
				db.Get(p, nil, i%4, db.PickRow())
				db.Put(p, nil, i%4, db.PickRow(), []byte("abc"))
			}
			p.Sleep(time.Second)
		})
		end := env.K.Run()
		return end, db.MinorCompactions, db.MajorCompactions
	}
	e1, m1, j1 := run()
	e2, m2, j2 := run()
	if e1 != e2 || m1 != m2 || j1 != j2 {
		t.Fatalf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", e1, m1, j1, e2, m2, j2)
	}
}

func TestBloomFiltersSkipProbes(t *testing.T) {
	env, db := newDB(t, 10)
	env.K.Go("client", func(p *sim.Proc) {
		// Create several SSTables holding disjoint key ranges.
		for i := 0; i < smallConfig().FlushEvery*2; i++ {
			db.Put(p, nil, 0, i, []byte("sstable-one-values"))
		}
		p.Sleep(time.Second) // let flushes complete
		// Gets for keys only in the base table should skip the fresh
		// SSTables via their Bloom filters.
		for i := 300; i < 340; i++ {
			if _, err := db.Get(p, nil, 0, i); err != nil {
				t.Errorf("get: %v", err)
			}
		}
		p.Sleep(time.Second)
	})
	env.K.Run()
	if db.BloomSkips == 0 {
		t.Fatal("no Bloom-filter skips recorded")
	}
}

func TestFlushCompressesValues(t *testing.T) {
	env, db := newDB(t, 11)
	env.K.Go("client", func(p *sim.Proc) {
		// Highly repetitive values compress well.
		for i := 0; i < smallConfig().FlushEvery; i++ {
			db.Put(p, nil, 1, i, bytes.Repeat([]byte("compressible "), 40))
		}
		p.Sleep(time.Second)
	})
	env.K.Run()
	if db.MinorCompactions == 0 {
		t.Fatal("no flush happened")
	}
	if db.CompressedBytes >= db.RawBytes {
		t.Fatalf("flush did not compress: %d raw -> %d stored", db.RawBytes, db.CompressedBytes)
	}
	if ratio := float64(db.RawBytes) / float64(db.CompressedBytes); ratio < 3 {
		t.Fatalf("repetitive values ratio = %.1f, want > 3", ratio)
	}
}

func TestGetAfterBloomSkipStillCorrect(t *testing.T) {
	env, db := newDB(t, 12)
	var got []byte
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		db.Put(p, nil, 2, 7, []byte("in-sstable"))
		for i := 0; i < smallConfig().FlushEvery; i++ {
			db.Put(p, nil, 2, 100+i, []byte("filler"))
		}
		p.Sleep(time.Second)
		// Key 7 lives in a flushed SSTable; Bloom filter must not skip it.
		got, err = db.Get(p, nil, 2, 7)
		p.Sleep(time.Second)
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "in-sstable" {
		t.Fatalf("got %q", got)
	}
}
