package bigtable

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
)

// refTable builds a sealed table the way base tables were built before rows
// went virtual: one slab of bootstrap rows for tablet t, a map over it, the
// given overrides applied on top, sealed as a plain table.
func refTable(db *DB, t int, overrides map[string][]byte) *sstable {
	n := int(db.cfg.ValueBytes)
	slab := make([]byte, db.cfg.RowsPerTablet*n)
	s := &sstable{data: make(map[string][]byte, db.cfg.RowsPerTablet+len(overrides))}
	for i := 0; i < db.cfg.RowsPerTablet; i++ {
		val := slab[i*n : (i+1)*n : (i+1)*n]
		fillBootstrap(val, t, i)
		s.data[rowKey(t, i)] = val
	}
	maps.Copy(s.data, overrides)
	db.seal(s)
	return s
}

// checkAgainstRef compares the oldest table of every tablet with its
// reference: sealed sizes, and Bloom answers for every row key, keys past
// the last row and another tablet's keys.
func checkAgainstRef(t *testing.T, db *DB, refs []*sstable) {
	t.Helper()
	for i, tab := range db.tablets {
		got, want := tab.ssts[len(tab.ssts)-1], refs[i]
		if got.bytes != want.bytes || got.rawBytes != want.rawBytes {
			t.Errorf("tablet %d: bytes=%d rawBytes=%d, reference %d %d", i, got.bytes, got.rawBytes, want.bytes, want.rawBytes)
		}
		if got.filter.Len() != want.filter.Len() {
			t.Errorf("tablet %d: filter holds %d keys, reference %d", i, got.filter.Len(), want.filter.Len())
		}
		for r := -5; r < 2*db.cfg.RowsPerTablet; r++ {
			for _, k := range []string{rowKey(i, r), rowKey(i+len(db.tablets), r)} {
				if got.filter.MayContain(k) != want.filter.MayContain(k) {
					t.Fatalf("tablet %d: Bloom answers differ for %q", i, k)
				}
			}
		}
	}
}

// checkReads compares every row's Get value with the model and Scan counts
// from a spread of starts with the model's first bytes.
func checkReads(t *testing.T, env *platform.Env, db *DB, model []map[string][]byte) {
	t.Helper()
	rows := db.cfg.RowsPerTablet
	env.K.Go("reader", func(p *sim.Proc) {
		for tb := range db.tablets {
			for r := 0; r < rows; r++ {
				v, err := db.Get(p, nil, tb, r)
				if err != nil || !bytes.Equal(v, model[tb][rowKey(tb, r)]) {
					t.Errorf("tablet %d row %d: Get = %d bytes, %v; differs from the reference", tb, r, len(v), err)
					return
				}
			}
			for _, start := range []int{0, 1, 977, rows - 3} {
				got, err := db.Scan(p, nil, tb, start)
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				want := 0
				for i := 0; i < db.cfg.ScanRows; i++ {
					if v := model[tb][rowKey(tb, (start+i)%rows)]; len(v) > 0 && v[0]%2 == 1 {
						want++
					}
				}
				if got != want {
					t.Errorf("tablet %d scan from %d matched %d, reference %d", tb, start, got, want)
				}
			}
		}
	})
	env.K.Run()
}

// TestBaseTablesMatchSlabReference checks every tablet of a DefaultConfig
// DB against base tables built from a slab and a map: Get values, Scan
// counts, sealed sizes and Bloom answers, before and after a major
// compaction merges overrides — including an empty value and a key past
// the last row — into the base.
func TestBaseTablesMatchSlabReference(t *testing.T) {
	env := platform.NewEnv(1, 1)
	db, err := New(env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*sstable, len(db.tablets))
	model := make([]map[string][]byte, len(db.tablets))
	for i := range db.tablets {
		refs[i] = refTable(db, i, nil)
		model[i] = maps.Clone(refs[i].data)
	}
	checkAgainstRef(t, db, refs)
	checkReads(t, env, db, model)

	puts := db.cfg.FlushEvery * db.cfg.MajorEvery
	env.K.Go("writer", func(p *sim.Proc) {
		for tb := range db.tablets {
			for i := 0; i < puts; i++ {
				row := (i*37 + tb) % db.cfg.RowsPerTablet
				val := bytes.Repeat([]byte{byte(i + tb)}, 1+i*13%700)
				switch i {
				case 4:
					val = nil
				case 9:
					row = db.cfg.RowsPerTablet + tb // not a base row
				}
				if err := db.Put(p, nil, tb, row, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				model[tb][rowKey(tb, row)] = val
			}
		}
		p.Sleep(5 * time.Second) // let the compactions drain
	})
	env.K.Run()
	if db.MajorCompactions < len(db.tablets) {
		t.Fatalf("%d major compactions, want one per tablet", db.MajorCompactions)
	}
	for i, tab := range db.tablets {
		merged := tab.ssts[len(tab.ssts)-1]
		if merged.base == nil || len(merged.data) == 0 || len(merged.data) > puts {
			t.Fatalf("tablet %d: merged table is not base + overlay (%d overlay rows)", i, len(merged.data))
		}
		refs[i] = refTable(db, i, merged.data)
	}
	checkAgainstRef(t, db, refs)
	for tb := range model {
		delete(model[tb], rowKey(tb, db.cfg.RowsPerTablet+tb)) // Get/Scan stay in range
	}
	checkReads(t, env, db, model)
}

// tortureRun drives one DB through a seeded mix of puts, gets and scans
// (enough puts for major compactions) and returns a line per result. Its
// puts carry the run's id, and every value it reads must be a bootstrap
// row or one of its own: a put in one DB must never show in another.
func tortureRun(t *testing.T, cfg Config, id int) []string {
	cfg.Seed = uint64(id + 1)
	env := platform.NewEnv(cfg.Seed, 1)
	db, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tag := []byte(fmt.Sprintf("db%d:", id))
	var out []string
	env.K.Go("torture", func(p *sim.Proc) {
		for i := 0; i < 320; i++ {
			tb, row := i%cfg.Tablets, db.PickRow()
			switch i % 4 {
			case 0, 1:
				val := append(bytes.Repeat(tag, 1+i%5), byte(i))
				err := db.Put(p, nil, tb, row, val)
				out = append(out, fmt.Sprintf("put %d/%d %v", tb, row, err))
			case 2:
				v, err := db.Get(p, nil, tb, row)
				if err == nil && !bytes.HasPrefix(v, tag) && !bytes.Equal(v, bootstrapValue(tb, row, int(cfg.ValueBytes))) {
					t.Errorf("db %d: tablet %d row %d holds another DB's value %q", id, tb, row, v[:min(len(v), 8)])
				}
				out = append(out, fmt.Sprintf("get %d/%d %x %v", tb, row, check.Digest(v), err))
			case 3:
				n, err := db.Scan(p, nil, tb, row)
				out = append(out, fmt.Sprintf("scan %d/%d %d %v", tb, row, n, err))
			}
		}
		p.Sleep(5 * time.Second)
	})
	end := env.K.Run()
	out = append(out, fmt.Sprintf("end %v minor %d major %d skips %d", end, db.MinorCompactions, db.MajorCompactions, db.BloomSkips))
	if db.MajorCompactions == 0 {
		t.Errorf("db %d: no major compaction", id)
	}
	return out
}

// TestConcurrentDBsShareBaseIndex runs DBs on one config concurrently,
// starting from a cold base-index cache so they race to build it (run it
// with go test -race -parallel 4). Each DB's results must equal a
// sequential run at the same seed.
func TestConcurrentDBsShareBaseIndex(t *testing.T) {
	cfg := smallConfig()
	cfg.RowsPerTablet = 401 // a config no other test builds: the cache starts cold
	got := make([][]string, 4)
	t.Run("parallel", func(t *testing.T) {
		for i := range got {
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				got[i] = tortureRun(t, cfg, i)
			})
		}
	})
	for i := range got {
		if want := tortureRun(t, cfg, i); !slices.Equal(got[i], want) {
			t.Errorf("db %d: concurrent run differs from the sequential one", i)
		}
	}
}
