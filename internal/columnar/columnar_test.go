package columnar

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"hyperprof/internal/stats"
)

// newBitmap returns an empty selection over n rows.
func newBitmap(n int) *Bitmap {
	b := &Bitmap{}
	b.reset(n)
	return b
}

// count returns the number of rows b selects.
func count(b *Bitmap) int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

func TestBitmapBasics(t *testing.T) {
	b := newBitmap(130)
	if b.Len() != 130 || count(b) != 0 {
		t.Fatal("fresh bitmap")
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if count(b) != 4 {
		t.Fatalf("count = %d", count(b))
	}
	if b.Get(1) || b.Get(65) {
		t.Fatal("unset bits read as set")
	}
}

func TestFilters(t *testing.T) {
	col := []int64{5, 10, 15, 20, 25}
	var ge Bitmap
	FilterGE(&ge, col, 15)
	if count(&ge) != 3 || !ge.Get(2) || ge.Get(1) {
		t.Fatalf("FilterGE: %d", count(&ge))
	}
}

func TestHashAggregate(t *testing.T) {
	keys := []int64{1, 2, 1, 3, 2, 1, 5}
	vals := []int64{10, 20, 30, 40, 50, 60, 0}
	got := NewGroups(6)
	if err := HashAggregate(got, keys, vals, nil); err != nil {
		t.Fatal(err)
	}
	// Key 5 sums to zero but is present; keys 0 and 4 are absent.
	want := map[int64]int64{1: 100, 2: 70, 3: 40, 5: 0}
	if !reflect.DeepEqual(got.Map(), want) {
		t.Fatalf("agg = %v, want %v", got.Map(), want)
	}
	if got.Len() != 4 || len(got.Sums) != 6 {
		t.Fatalf("len = %d, domain = %d", got.Len(), len(got.Sums))
	}
	// With selection.
	// With selection, into the same aggregate: nothing of the first result
	// survives.
	var sel Bitmap
	FilterGE(&sel, vals, 30)
	if err := HashAggregate(got, keys, vals, &sel); err != nil {
		t.Fatal(err)
	}
	if want := map[int64]int64{1: 90, 2: 50, 3: 40}; !reflect.DeepEqual(got.Map(), want) {
		t.Fatalf("selected agg = %v, want %v", got.Map(), want)
	}
	// Length and domain validation.
	if err := HashAggregate(got, keys, vals[:2], nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := HashAggregate(got, keys, vals, newBitmap(3)); err == nil {
		t.Fatal("selection mismatch accepted")
	}
	if err := HashAggregate(NewGroups(5), keys, vals, nil); err == nil {
		t.Fatal("key 5 accepted in domain [0, 5)")
	}
	if err := HashAggregate(NewGroups(5), []int64{-1}, []int64{1}, nil); err == nil {
		t.Fatal("negative key accepted")
	}
	// A key outside the domain on an unselected row is never read.
	FilterGE(&sel, vals, 1)
	if err := HashAggregate(NewGroups(5), keys, vals, &sel); err != nil {
		t.Fatalf("unselected rows checked: %v", err)
	}
}

func TestMergeGroups(t *testing.T) {
	dst := NewGroups(4)
	dst.Add(1, 5)
	src := NewGroups(4)
	src.Add(1, 10)
	src.Add(2, 3)
	src.Add(3, 0)
	if err := MergeGroups(dst, src); err != nil {
		t.Fatal(err)
	}
	if want := map[int64]int64{1: 15, 2: 3, 3: 0}; !reflect.DeepEqual(dst.Map(), want) || dst.Len() != 3 {
		t.Fatalf("merged = %v (len %d), want %v", dst.Map(), dst.Len(), want)
	}
	// Merging an empty aggregate changes nothing.
	if err := MergeGroups(dst, NewGroups(4)); err != nil || dst.Len() != 3 || dst.Sums[1] != 15 {
		t.Fatalf("empty merge: len %d sums %v err %v", dst.Len(), dst.Sums, err)
	}
	if err := MergeGroups(dst, NewGroups(5)); err == nil {
		t.Fatal("domain mismatch accepted")
	}
}

func TestGroupsEqual(t *testing.T) {
	a, b := NewGroups(3), NewGroups(3)
	if !a.Equal(b) {
		t.Fatal("empty aggregates differ")
	}
	a.Add(2, 0)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("a present zero-sum key is ignored")
	}
	b.Add(2, 0)
	if !a.Equal(b) {
		t.Fatal("equal aggregates differ")
	}
	b.Add(2, 1)
	if a.Equal(b) {
		t.Fatal("different sums compare equal")
	}
	if NewGroups(3).Equal(NewGroups(4)) {
		t.Fatal("different domains compare equal")
	}
}

func TestHashJoin(t *testing.T) {
	groups := map[int64]int64{1: 10, 2: 20, 99: 5}
	dim := map[int64]string{1: "a", 2: "b", 3: "c"}
	got := HashJoin(groups, dim)
	if got["a"] != 10 || got["b"] != 20 {
		t.Fatalf("join = %v", got)
	}
	if _, ok := got["c"]; ok {
		t.Fatal("unmatched dimension row joined")
	}
	if len(got) != 2 {
		t.Fatalf("inner join kept %d rows", len(got))
	}
}

func TestSortKeysByValueDesc(t *testing.T) {
	m := map[int64]int64{1: 50, 2: 100, 3: 50, 4: 10}
	order := SortKeysByValueDesc(m)
	want := []int64{2, 1, 3, 4} // ties (1,3) break by ascending key
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestAggregateMatchesReferenceProperty(t *testing.T) {
	// Property: vectorized filter+aggregate, split over a random number of
	// partitions and merged, equals the naive row loop into a map — in sums,
	// in the present-key set and in Len. Values include 0 and negatives, and
	// thresholds <= 0 select zero-valued rows, so zero-sum keys must stay
	// present.
	if err := quick.Check(func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		n := 1 + rng.Intn(130)
		rows := rng.Intn(500)
		keys := make([]int64, rows)
		vals := make([]int64, rows)
		for i := range keys {
			keys[i] = int64(rng.Intn(n))
			vals[i] = int64(rng.Intn(2001)) - 1000
			if rng.Intn(4) == 0 {
				vals[i] = 0
			}
		}
		threshold := int64(rng.Intn(1201)) - 1100

		want := map[int64]int64{}
		for i := range keys {
			if vals[i] >= threshold {
				want[keys[i]] += vals[i]
			}
		}
		// One selection vector and one partial serve every partition, as
		// the engine reuses them shard after shard.
		merged, partial := NewGroups(n), NewGroups(n)
		var sel Bitmap
		parts := 1 + rng.Intn(4)
		for p := 0; p < parts; p++ {
			lo, hi := p*rows/parts, (p+1)*rows/parts
			FilterGE(&sel, vals[lo:hi], threshold)
			if HashAggregate(partial, keys[lo:hi], vals[lo:hi], &sel) != nil || MergeGroups(merged, partial) != nil {
				return false
			}
		}
		// Map holds the present keys; every absent key must sum to zero.
		var absent int64
		for k, s := range merged.Sums {
			if _, ok := want[int64(k)]; !ok {
				absent |= s
			}
		}
		return merged.Len() == len(want) && reflect.DeepEqual(merged.Map(), want) && absent == 0
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateRejectsBadInputProperty(t *testing.T) {
	// Property: a key outside [0, n) on a selected row, or mismatched column
	// and selection lengths, is an error and never a panic.
	if err := quick.Check(func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		n := 1 + rng.Intn(100)
		rows := 1 + rng.Intn(200)
		keys := make([]int64, rows)
		vals := make([]int64, rows)
		for i := range keys {
			keys[i] = int64(rng.Intn(n))
		}
		bad := rng.Intn(rows)
		if rng.Intn(2) == 0 {
			keys[bad] = -1 - int64(rng.Intn(1000))
		} else {
			keys[bad] = int64(n + rng.Intn(1000))
		}
		g := NewGroups(n)
		errKey := HashAggregate(g, keys, vals, nil)
		errCols := HashAggregate(g, keys, vals[:rows-1], nil)
		errSel := HashAggregate(g, keys, vals, newBitmap(rows+1))
		return errKey != nil && errCols != nil && errSel != nil
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateAllocations(t *testing.T) {
	rng := stats.NewRNG(9)
	keys := make([]int64, 2000)
	vals := make([]int64, 2000)
	for i := range keys {
		keys[i] = int64(rng.Intn(64))
		vals[i] = int64(rng.Intn(1000))
	}
	// A reused selection vector and a reused aggregate cost nothing per
	// batch, however many rows or keys they fold.
	var sel Bitmap
	FilterGE(&sel, vals, 500)
	if a := testing.AllocsPerRun(100, func() { FilterGE(&sel, vals, 500) }); a != 0 {
		t.Fatalf("FilterGE allocs = %v, want 0", a)
	}
	src := NewGroups(64)
	if a := testing.AllocsPerRun(100, func() {
		if err := HashAggregate(src, keys, vals, &sel); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("HashAggregate allocs = %v, want 0", a)
	}
	dst := NewGroups(64)
	if a := testing.AllocsPerRun(100, func() {
		if err := MergeGroups(dst, src); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("MergeGroups allocs = %v, want 0", a)
	}
}

// addAll folds (key, value) pairs decoded from data into g: each byte pair
// is a key within g's domain and a signed value, zero included.
func addAll(g *Groups, data []byte) {
	for i := 0; i+1 < len(data); i += 2 {
		g.Add(int64(int(data[i])%len(g.Sums)), int64(int8(data[i+1])))
	}
}

func TestGroupsResetEqualsFresh(t *testing.T) {
	if err := quick.Check(func(n uint8, before, after []byte) bool {
		domain := 1 + int(n)
		g := NewGroups(domain)
		addAll(g, before)
		g.Reset()
		if !g.Equal(NewGroups(domain)) || g.Len() != 0 || len(g.Map()) != 0 {
			return false
		}
		// A reset aggregate then folds exactly as a fresh one.
		fresh := NewGroups(domain)
		addAll(g, after)
		addAll(fresh, after)
		return g.Equal(fresh) && reflect.DeepEqual(g.Map(), fresh.Map())
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// column decodes data into a column of signed values.
func column(data []byte) []int64 {
	col := make([]int64, len(data))
	for i, b := range data {
		col[i] = int64(int8(b))
	}
	return col
}

// sameBits reports whether two bitmaps cover the same rows and select the
// same ones.
func sameBits(a, b *Bitmap) bool { return a.n == b.n && slices.Equal(a.words, b.words) }

// filterReuseMatches filters each column in turn into one reused selection
// vector and reports whether every result equals a fresh filter's.
func filterReuseMatches(threshold int64, cols ...[]int64) bool {
	var ge Bitmap
	for _, col := range cols {
		FilterGE(&ge, col, threshold)
		fresh := newBitmap(len(col))
		for i, v := range col {
			if v >= threshold {
				fresh.Set(i)
			}
		}
		if !sameBits(&ge, fresh) {
			return false
		}
	}
	return true
}

func TestFilterIntoReusedBitmap(t *testing.T) {
	long := make([]int64, 200)
	for i := range long {
		long[i] = 1
	}
	short := []int64{0, 1, 0}
	// Long then short: the long column's bits past the short one's end, in
	// its last word and in the words beyond, must not survive.
	if !filterReuseMatches(1, long, short, long, nil, long) {
		t.Fatal("long-then-short filter differs from a fresh one")
	}
	if err := quick.Check(func(threshold int8, a, b, c []byte) bool {
		return filterReuseMatches(int64(threshold), column(a), column(b), column(c))
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzGroupsReuse checks that an aggregate and a selection vector reused
// after arbitrary earlier contents give what fresh ones give: a Reset
// aggregate folds the second batch exactly as a new one, and a filter into
// the bitmap of the first column selects exactly the second column's rows.
func FuzzGroupsReuse(f *testing.F) {
	f.Add(uint8(63), []byte{1, 2, 3, 4}, []byte{1, 0xff, 5, 0}, int8(0))
	f.Add(uint8(0), []byte{}, []byte{0, 0}, int8(-128))
	f.Add(uint8(200), make([]byte, 300), []byte{7, 7, 7}, int8(7))
	f.Add(uint8(64), []byte{63, 1, 64, 1}, make([]byte, 129), int8(1))
	f.Fuzz(func(t *testing.T, n uint8, first, second []byte, threshold int8) {
		domain := 1 + int(n)
		g, fresh := NewGroups(domain), NewGroups(domain)
		addAll(g, first)
		g.Reset()
		addAll(g, second)
		addAll(fresh, second)
		if !g.Equal(fresh) {
			t.Fatalf("reset aggregate %v, fresh %v", g.Map(), fresh.Map())
		}
		if !filterReuseMatches(int64(threshold), column(first), column(second)) {
			t.Fatalf("filter reused from a %d-row column into a %d-row one differs from a fresh one", len(first), len(second))
		}
	})
}
