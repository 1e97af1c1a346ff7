package bigtable

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"testing"

	"hyperprof/internal/sim"
)

// TestKeyOrderIsStringOrder checks the decimal-trie order against
// sort.Strings over the rendered keys, around every decimal boundary.
func TestKeyOrderIsStringOrder(t *testing.T) {
	for _, rows := range []int{1, 9, 10, 11, 32, 99, 100, 101, 1000, 3000} {
		for _, tb := range []int{0, 7} {
			keys := make([]string, rows)
			for i := range keys {
				keys[i] = rowKey(tb, i)
			}
			sort.Strings(keys)
			o := newKeyOrder(rows)
			got := make([]string, len(o.order))
			for i, r := range o.order {
				got[i] = rowKey(tb, int(r))
				if o.rank[r] != int32(i) {
					t.Fatalf("R=%d: rank[%d] = %d, want %d", rows, r, o.rank[r], i)
				}
			}
			if !slices.Equal(got, keys) {
				t.Fatalf("R=%d tablet %d: trie order differs from sort.Strings", rows, tb)
			}
		}
	}
}

// FuzzRowKeyOrder checks that comparing two rows of any tablet, each
// negative, a base row or past the last one, agrees in sign with comparing
// their keys as strings.
func FuzzRowKeyOrder(f *testing.F) {
	for _, c := range [][4]int{
		{0, 0, 1, 3000}, {3, 9, 10, 3000}, {1, 2999, 3000, 3000}, {2, -1, 0, 3000},
		{0, -12, -1, 10}, {5, 100, 99, 101}, {0, 30000, 3, 3000}, {11, 7, 7, 1},
	} {
		f.Add(c[0], c[1], c[2], c[3])
	}
	orders := map[int]keyOrder{}
	f.Fuzz(func(t *testing.T, tb, a, b, rows int) {
		rows = 1 + (rows%4096+4096)%4096
		o, ok := orders[rows]
		if !ok {
			o = newKeyOrder(rows)
			orders[rows] = o
		}
		got, want := o.compare(a, b), strings.Compare(rowKey(tb, a), rowKey(tb, b))
		if cmp.Compare(got, 0) != want {
			t.Fatalf("R=%d: compare(%d, %d) = %d, keys %q and %q compare %d",
				rows, a, b, got, rowKey(tb, a), rowKey(tb, b), want)
		}
	})
}

// TestScanAllocsDoNotGrowWithRows checks that a scan on a warmed DB
// allocates as many objects over 10 rows as over 300: rows are looked up
// by number, so no key is built per scanned row.
func TestScanAllocsDoNotGrowWithRows(t *testing.T) {
	env, db := newDB(t, 1)
	env.K.Go("writer", func(p *sim.Proc) {
		for i := 0; i < db.cfg.FlushEvery*db.cfg.MajorEvery+3; i++ {
			if err := db.Put(p, nil, 1, i*7%db.cfg.RowsPerTablet, []byte{byte(i)}); err != nil {
				t.Error(err)
			}
		}
	})
	env.K.Run()
	scan := func(rows int) (n float64) {
		db.cfg.ScanRows = rows
		env.K.Go("scanner", func(p *sim.Proc) {
			n = testing.AllocsPerRun(50, func() {
				if _, err := db.Scan(p, nil, 1, 5); err != nil {
					t.Error(err)
				}
			})
		})
		env.K.Run()
		return n
	}
	if few, many := scan(10), scan(300); few != many {
		t.Fatalf("a scan allocates %v objects over 10 rows and %v over 300", few, many)
	}
}
