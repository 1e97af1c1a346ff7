package bigtable

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"
	"time"

	"hyperprof/internal/bloom"
	"hyperprof/internal/check"
	"hyperprof/internal/compress"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
)

// refSealed is a table sealed by the reference algorithm, which knows
// nothing of row numbers: every key is rendered as a string, the keys are
// sorted with sort.Strings, each key and its value are appended to one raw
// block, the block is encoded with compress.AppendEncode, and every key is
// added to a fresh Bloom filter through the string API.
type refSealed struct {
	data            map[string][]byte
	raw             []byte
	bytes, rawBytes int64
	filter          *bloom.Filter
}

func refSeal(t *testing.T, data map[string][]byte) *refSealed {
	t.Helper()
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r := &refSealed{data: data, filter: bloom.New(len(keys)+1, 0.01)}
	for _, k := range keys {
		r.raw = append(r.raw, k...)
		r.raw = append(r.raw, data[k]...)
		r.filter.AddBytes([]byte(k))
	}
	enc, err := compress.AppendEncode(nil, r.raw)
	if err != nil {
		t.Fatal(err)
	}
	r.rawBytes, r.bytes = int64(len(r.raw)), max(int64(len(enc)), 1)
	return r
}

// refTable seals tablet t's bootstrap rows with the given overrides
// applied on top by the reference algorithm: what the tablet's oldest
// table must hold.
func refTable(t *testing.T, db *DB, tablet int, overrides map[int][]byte) *refSealed {
	t.Helper()
	data := make(map[string][]byte, db.cfg.RowsPerTablet+len(overrides))
	for i := 0; i < db.cfg.RowsPerTablet; i++ {
		data[rowKey(tablet, i)] = bootstrapValue(tablet, i, int(db.cfg.ValueBytes))
	}
	for r, v := range overrides {
		data[rowKey(tablet, r)] = v
	}
	return refSeal(t, data)
}

// checkSealed compares a sealed table of tablet tb with its reference:
// sealed sizes, key count, and Bloom answers for the keys of rows -5 to
// 2*rows-1 of tablet tb and of tablet other.
func checkSealed(t *testing.T, got *sstable, want *refSealed, tb, other, rows int) {
	t.Helper()
	if got.bytes != want.bytes || got.rawBytes != want.rawBytes {
		t.Errorf("tablet %d: bytes=%d rawBytes=%d, reference %d %d", tb, got.bytes, got.rawBytes, want.bytes, want.rawBytes)
	}
	if got.filter.Len() != want.filter.Len() {
		t.Errorf("tablet %d: filter holds %d keys, reference %d", tb, got.filter.Len(), want.filter.Len())
	}
	for r := -5; r < 2*rows; r++ {
		for _, k := range []string{rowKey(tb, r), rowKey(other, r)} {
			if got.filter.MayContainBytes([]byte(k)) != want.filter.MayContainBytes([]byte(k)) {
				t.Fatalf("tablet %d: Bloom answers differ for %q", tb, k)
			}
		}
	}
}

// checkAgainstRef compares the oldest table of every tablet with its
// reference, probing the Bloom filter with keys past the last row and
// another tablet's keys too.
func checkAgainstRef(t *testing.T, db *DB, refs []*refSealed) {
	t.Helper()
	for i, tab := range db.tablets {
		checkSealed(t, tab.ssts[len(tab.ssts)-1], refs[i], i, i+len(db.tablets), db.cfg.RowsPerTablet)
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
// DB against its rows in a string-keyed map sealed by the reference
// algorithm: Get values, Scan counts, sealed sizes and Bloom answers,
// before and after a major compaction merges overrides — including an
// empty value and a key past the last row — into the base.
func TestBaseTablesMatchSlabReference(t *testing.T) {
	env := platform.NewEnv(1, 1)
	db, err := New(env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*refSealed, len(db.tablets))
	model := make([]map[string][]byte, len(db.tablets))
	for i := range db.tablets {
		refs[i] = refTable(t, db, i, nil)
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
		refs[i] = refTable(t, db, i, merged.data)
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
