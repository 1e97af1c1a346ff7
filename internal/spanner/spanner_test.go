package spanner

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/storage"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

func testEnv(seed uint64) *platform.Env {
	env := platform.NewEnv(seed, 1)
	env.Net = netsim.New(env.K, RecommendedNetConfig())
	return env
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Groups = 3
	cfg.RowsPerGroup = 500
	cfg.QueryScanRows = 50
	return cfg
}

// TestNewValidation checks that degenerate configs, dataset sizes included,
// are config errors, not bootstrap panics.
func TestNewValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"zero groups", func(c *Config) { c.Groups = 0 }},
		{"two regions (majority needs 3)", func(c *Config) { c.Regions = 2 }},
		{"zero rows per group", func(c *Config) { c.RowsPerGroup = 0 }},
		{"negative row bytes", func(c *Config) { c.RowBytes = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.edit(&cfg)
			if _, err := New(testEnv(1), cfg); err == nil {
				t.Fatalf("%+v accepted", cfg)
			}
		})
	}
}

func TestReadReturnsStoredValue(t *testing.T) {
	env := testEnv(2)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	env.K.Go("client", func(p *sim.Proc) {
		tr := env.Tracer.Start(taxonomy.Spanner, p.Now())
		got, err = db.Read(p, tr, 1, 7, false)
		env.Tracer.Finish(tr, p.Now())
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1024 {
		t.Fatalf("value len = %d", len(got))
	}
	// Deterministic bootstrap pattern.
	if got[0] != byte(1*7+7*13) {
		t.Fatalf("value[0] = %d", got[0])
	}
	if db.Reads != 1 {
		t.Fatalf("reads = %d", db.Reads)
	}
}

func TestCommitThenReadRoundTrip(t *testing.T) {
	env := testEnv(3)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("hello spanner, this is new row content")
	var got []byte
	env.K.Go("client", func(p *sim.Proc) {
		tr := env.Tracer.Start(taxonomy.Spanner, p.Now())
		if err = db.Commit(p, tr, 0, 3, want); err != nil {
			return
		}
		got, err = db.Read(p, tr, 0, 3, false)
		env.Tracer.Finish(tr, p.Now())
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q", got)
	}
}

func TestCommitAnnotatesRemoteWork(t *testing.T) {
	env := testEnv(4)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var tr *trace.Trace
	env.K.Go("client", func(p *sim.Proc) {
		tr = env.Tracer.Start(taxonomy.Spanner, p.Now())
		err = db.Commit(p, tr, 0, 1, []byte("v"))
		env.Tracer.Finish(tr, p.Now())
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	b := tr.ComputeBreakdown()
	if b.Remote <= 0 {
		t.Fatalf("commit breakdown has no remote work: %+v", b)
	}
	// Majority wait spans at least one cross-region RTT.
	if b.Remote < 3*time.Millisecond {
		t.Fatalf("remote = %v, want >= one cross-region RTT", b.Remote)
	}
	if b.CPU <= 0 || b.IO <= 0 {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestStrongReadAddsRemote(t *testing.T) {
	env := testEnv(5)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var weak, strong trace.Breakdown
	env.K.Go("client", func(p *sim.Proc) {
		tr1 := env.Tracer.Start(taxonomy.Spanner, p.Now())
		db.Read(p, tr1, 0, 1, false)
		env.Tracer.Finish(tr1, p.Now())
		weak = tr1.ComputeBreakdown()

		tr2 := env.Tracer.Start(taxonomy.Spanner, p.Now())
		db.Read(p, tr2, 0, 1, true)
		env.Tracer.Finish(tr2, p.Now())
		strong = tr2.ComputeBreakdown()
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if weak.Remote != 0 {
		t.Fatalf("weak read has remote work: %+v", weak)
	}
	if strong.Remote <= 0 {
		t.Fatalf("strong read has no remote work: %+v", strong)
	}
}

func TestQueryEvaluatesPredicate(t *testing.T) {
	env := testEnv(6)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var matched int
	env.K.Go("client", func(p *sim.Proc) {
		matched, err = db.Query(p, nil, 2, 0)
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Predicate: first byte odd. Bootstrap byte = g*7 + r*13; over 50
	// consecutive rows exactly half are odd (13 is odd).
	if matched != 25 {
		t.Fatalf("matched = %d, want 25", matched)
	}
}

// TestFirstByteMatchesLookupRow checks the query predicate's virtual-row
// shortcut against the materialised row, over applied rows (including an
// empty one), bootstrap rows, and a deployment with empty bootstrap rows.
func TestFirstByteMatchesLookupRow(t *testing.T) {
	for _, rowBytes := range []int64{smallConfig().RowBytes, 0} {
		cfg := smallConfig()
		cfg.RowBytes = rowBytes
		db, err := New(testEnv(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep := db.groups[1].leaderRep()
		rep.rows[rowID(1, 3)] = []byte{}
		rep.rows[rowID(1, 4)] = []byte{9, 2}
		for row := 0; row < cfg.RowsPerGroup; row++ {
			v, err := db.lookupRow(rep, 1, row)
			if err != nil {
				t.Fatal(err)
			}
			b, ok := db.firstByte(rep, 1, row)
			if ok != (len(v) > 0) || ok && b != v[0] {
				t.Fatalf("RowBytes %d row %d: firstByte = %d,%v; row = %v", rowBytes, row, b, ok, v[:min(len(v), 1)])
			}
		}
	}
}

// TestRowKeyTable checks how rows are named. Every in-range row has its own
// rowID, loaded on each of its group's replicas. Reads and commits at rows
// -1, RowsPerGroup and 1<<32 (whose low 32 bits are row 0) fail and leave
// every loaded row as it was. The operation history and the invariant
// messages name rows "g%d/r%d".
func TestRowKeyTable(t *testing.T) {
	cfg := smallConfig()
	env := testEnv(1)
	db, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for g, grp := range db.groups {
		for row := 0; row < cfg.RowsPerGroup; row++ {
			id := rowID(g, row)
			if seen[id] {
				t.Fatalf("rowID(%d, %d) = %#x repeats", g, row, id)
			}
			seen[id] = true
			for _, rep := range grp.replicas {
				if !rep.machine.Store.Has(id) {
					t.Fatalf("row g%d/r%d missing from region %d's store", g, row, rep.region)
				}
			}
		}
		for _, row := range []int{-1, cfg.RowsPerGroup} {
			if grp.leaderRep().machine.Store.Has(rowID(g, row)) {
				t.Fatalf("out-of-range row %d of group %d is in the store", row, g)
			}
		}
	}

	// storeReads counts the object reads group 1's replica stores served.
	storeReads := func() (n int64) {
		for _, rep := range db.groups[1].replicas {
			for _, tier := range storage.Tiers() {
				n += rep.machine.Store.Stats(tier).Reads
			}
		}
		return n
	}
	h := check.NewHistory(env.K)
	db.SetRecorder(h)
	env.K.Go("client", func(p *sim.Proc) {
		defer db.Stop()
		before := storeReads()
		for _, row := range []int{-1, cfg.RowsPerGroup, 1 << 32} {
			if v, err := db.Read(p, nil, 1, row, false); err == nil {
				t.Errorf("Read(1, %d) = %v, want an error", row, v)
			}
			if err := db.Commit(p, nil, 1, row, []byte("stray")); err == nil {
				t.Errorf("Commit(1, %d) succeeded", row)
			}
		}
		if n := storeReads() - before; n != 0 {
			t.Errorf("rejected reads read %d objects from the stores", n)
		}
		for _, row := range []int{0, cfg.RowsPerGroup - 1} {
			v, err := db.Read(p, nil, 1, row, false)
			if err != nil || !bytes.Equal(v, db.bootstrapValue(1, row)) {
				t.Errorf("Read(1, %d) = %v, %v; want the bootstrap row", row, v, err)
			}
		}
		if err := db.Commit(p, nil, 1, 7, []byte("seven")); err != nil {
			t.Error(err)
		}
	})
	env.K.Run()
	for _, rep := range db.groups[1].replicas {
		for id := range rep.rows {
			if id != rowID(1, 7) {
				t.Errorf("region %d applied row %s", rep.region, idKey(id))
			}
		}
	}
	var keys []string
	for _, op := range h.Ops() {
		keys = append(keys, op.Key)
	}
	if want := []string{"g1/r0", "g1/r499", "g1/r7"}; !slices.Equal(keys, want) {
		t.Fatalf("recorded keys %v, want %v", keys, want)
	}

	// A follower whose committed entry names another row under the leader's
	// term breaks log matching; the message names both rows in text.
	grp := db.groups[1]
	follower := grp.replicas[(grp.leader+1)%len(grp.replicas)]
	follower.log[0].key = rowID(1, 8)
	br := strings.Join(db.CheckInvariants(), "\n")
	if !strings.Contains(br, "names g1/r8 on region") || !strings.Contains(br, "but g1/r7 on the leader") {
		t.Fatalf("invariant messages do not name rows as g%%d/r%%d:\n%s", br)
	}
}

func TestCompactionTriggersEveryN(t *testing.T) {
	env := testEnv(7)
	cfg := smallConfig()
	cfg.CompactionEvery = 3
	db, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.K.Go("client", func(p *sim.Proc) {
		for i := 0; i < 7; i++ {
			if err = db.Commit(p, nil, 0, i, []byte("x")); err != nil {
				return
			}
		}
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if db.Compactions != 2 {
		t.Fatalf("compactions = %d, want 2 (7 commits / every 3)", db.Compactions)
	}
	// Compaction cycles must show up in the profile.
	cb := env.Prof.CategoryBreakdown(taxonomy.Spanner, taxonomy.CoreCompute)
	if cb[taxonomy.Compaction] <= 0 {
		t.Fatal("no compaction cycles profiled")
	}
}

func TestProfiledCategoriesCoverTable4(t *testing.T) {
	env := testEnv(8)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	env.K.Go("client", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			db.Read(p, nil, i%3, db.PickRow(), i%7 == 0)
			if i%3 == 0 {
				db.Commit(p, nil, i%3, i, []byte("value"))
			}
			if i%10 == 0 {
				db.Query(p, nil, i%3, i)
			}
		}
		db.Stop()
	})
	env.K.Run()
	cb := env.Prof.CategoryBreakdown(taxonomy.Spanner, taxonomy.CoreCompute)
	for _, cat := range []taxonomy.Category{taxonomy.Read, taxonomy.Write, taxonomy.Consensus, taxonomy.Query, taxonomy.MiscCore, taxonomy.Uncategorized} {
		if cb[cat] <= 0 {
			t.Errorf("category %q has no cycles: %v", cat, cb)
		}
	}
	// Reads dominate the default mix.
	if cb[taxonomy.Read] <= cb[taxonomy.Write] {
		t.Errorf("read %.3f <= write %.3f", cb[taxonomy.Read], cb[taxonomy.Write])
	}
	// Taxes are present in roughly the Figure 3 proportion.
	bb := env.Prof.BroadBreakdown(taxonomy.Spanner)
	if bb[taxonomy.DatacenterTax] < 0.2 || bb[taxonomy.SystemTax] < 0.2 {
		t.Errorf("broad breakdown = %v", bb)
	}
}

func TestOutOfRangeGroup(t *testing.T) {
	env := testEnv(9)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	env.K.Go("client", func(p *sim.Proc) {
		if _, e := db.Read(p, nil, 99, 0, false); e == nil {
			t.Error("read of bad group accepted")
		}
		if e := db.Commit(p, nil, -1, 0, nil); e == nil {
			t.Error("commit to bad group accepted")
		}
		if _, e := db.Query(p, nil, 99, 0); e == nil {
			t.Error("query of bad group accepted")
		}
		db.Stop()
	})
	env.K.Run()
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (time.Duration, int) {
		env := testEnv(42)
		db, err := New(env, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		env.K.Go("client", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				db.Read(p, nil, i%3, db.PickRow(), false)
				db.Commit(p, nil, i%3, i, []byte("abc"))
			}
			db.Stop()
		})
		end := env.K.Run()
		return end, db.Compactions
	}
	e1, c1 := run()
	e2, c2 := run()
	if e1 != e2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", e1, c1, e2, c2)
	}
}

func TestCommitSurvivesOneReplicaFailure(t *testing.T) {
	env := testEnv(20)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	env.K.Go("client", func(p *sim.Proc) {
		if err = db.StopReplica(0, 2); err != nil {
			return
		}
		if err = db.Commit(p, nil, 0, 5, []byte("majority-still-works")); err != nil {
			return
		}
		got, err = db.Read(p, nil, 0, 5, false)
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "majority-still-works" {
		t.Fatalf("read back %q", got)
	}
}

func TestCommitFailsWithoutQuorum(t *testing.T) {
	env := testEnv(21)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var commitErr error
	env.K.Go("client", func(p *sim.Proc) {
		db.StopReplica(1, 1)
		db.StopReplica(1, 2)
		commitErr = db.Commit(p, nil, 1, 5, []byte("doomed"))
		db.Stop()
	})
	env.K.Run()
	if !errors.Is(commitErr, ErrNoQuorum) {
		t.Fatalf("commit err = %v, want ErrNoQuorum", commitErr)
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

func TestStrongReadFailsWithoutQuorum(t *testing.T) {
	env := testEnv(22)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var readErr error
	env.K.Go("client", func(p *sim.Proc) {
		db.StopReplica(2, 1)
		db.StopReplica(2, 2)
		_, readErr = db.Read(p, nil, 2, 1, true)
		// Weak reads are served from the leader and still work.
		if _, e := db.Read(p, nil, 2, 1, false); e != nil {
			t.Errorf("weak read failed: %v", e)
		}
		db.Stop()
	})
	env.K.Run()
	if !errors.Is(readErr, ErrNoQuorum) {
		t.Fatalf("strong read err = %v, want ErrNoQuorum", readErr)
	}
}

func TestStopReplicaValidation(t *testing.T) {
	env := testEnv(23)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.StopReplica(99, 0); err == nil {
		t.Error("bad group accepted")
	}
	if err := db.StopReplica(0, 99); err == nil {
		t.Error("bad region accepted")
	}
	db.Stop()
	env.K.Run()
}
