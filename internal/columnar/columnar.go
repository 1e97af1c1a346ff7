// Package columnar implements the vectorized relational kernels a
// BigQuery-class engine executes per batch: selection bitmaps over typed
// columns, dense group aggregation, hash join, and ordering. These are the "core
// compute" operators of Table 5 (filter, aggregate, join, sort, compute) as
// real code; internal/bigquery executes its queries through them.
package columnar

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Bitmap is a selection vector: bit i set means row i is selected.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap creates an empty selection over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Set marks row i selected.
func (b *Bitmap) Set(i int) { b.words[i/64] |= 1 << (i % 64) }

// Get reports whether row i is selected.
func (b *Bitmap) Get(i int) bool { return b.words[i/64]&(1<<(i%64)) != 0 }

// Count returns the number of selected rows.
func (b *Bitmap) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// And intersects two bitmaps of equal length into a new one.
func (b *Bitmap) And(o *Bitmap) (*Bitmap, error) {
	if b.n != o.n {
		return nil, fmt.Errorf("columnar: bitmap lengths %d != %d", b.n, o.n)
	}
	out := NewBitmap(b.n)
	for i := range b.words {
		out.words[i] = b.words[i] & o.words[i]
	}
	return out, nil
}

// reset makes b an empty selection over n rows, reusing its words when they
// are long enough.
func (b *Bitmap) reset(n int) {
	w := (n + 63) / 64
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		clear(b.words)
	}
	b.n = n
}

// FilterGE selects into dst the rows where col[i] >= threshold (the engine's
// scan predicate). dst is resized to len(col) and nothing of its previous
// selection survives; its words are reused when they are long enough, so a
// caller-owned selection vector filters batch after batch without
// allocating.
func FilterGE(dst *Bitmap, col []int64, threshold int64) {
	dst.reset(len(col))
	for i, v := range col {
		if v >= threshold {
			dst.Set(i)
		}
	}
}

// Groups is a dense partial aggregate over the bounded key domain [0, n):
// Sums[k] is SUM(val) over the rows keyed k, and key k is present once any
// row carried it. Presence is tracked apart from the sum, so a present key
// whose values cancel (or are all zero) stays present, exactly as a map
// entry would.
type Groups struct {
	// Sums is indexed by key; an absent key's sum is 0. Callers read it
	// and write through Add, which keeps presence in step.
	Sums    []int64
	present Bitmap
	count   int // present keys
}

// NewGroups returns an empty aggregate over the key domain [0, n).
func NewGroups(n int) *Groups {
	return &Groups{Sums: make([]int64, n), present: Bitmap{words: make([]uint64, (n+63)/64), n: n}}
}

// Len returns the number of present keys.
func (g *Groups) Len() int { return g.count }

// Reset empties the aggregate in place, keeping its domain: every sum is 0
// and no key is present, as in a fresh NewGroups.
func (g *Groups) Reset() {
	clear(g.Sums)
	clear(g.present.words)
	g.count = 0
}

// Add folds v into key k and marks it present. k must lie in the domain.
func (g *Groups) Add(k, v int64) {
	g.Sums[k] += v
	if !g.present.Get(int(k)) {
		g.present.Set(int(k))
		g.count++
	}
}

// Map converts the aggregate to a key → sum map holding exactly the present
// keys.
func (g *Groups) Map() map[int64]int64 {
	out := make(map[int64]int64, g.count)
	for i, s := range g.Sums {
		if g.present.Get(i) {
			out[int64(i)] = s
		}
	}
	return out
}

// Equal reports whether two aggregates have the same domain, the same
// present keys and the same sums.
func (g *Groups) Equal(o *Groups) bool {
	return g.count == o.count && slices.Equal(g.present.words, o.present.words) && slices.Equal(g.Sums, o.Sums)
}

// HashAggregate computes SUM(vals) grouped by keys over the selected rows
// into dst, whose domain [0, len(dst.Sums)) bounds the keys. dst is Reset
// first, so whatever it held before is gone. A key outside the domain is an
// error, and leaves dst holding the rows before it.
func HashAggregate(dst *Groups, keys, vals []int64, sel *Bitmap) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("columnar: column lengths %d != %d", len(keys), len(vals))
	}
	if sel != nil && sel.Len() != len(keys) {
		return fmt.Errorf("columnar: selection length %d != %d", sel.Len(), len(keys))
	}
	dst.Reset()
	n := len(dst.Sums)
	for i, k := range keys {
		if sel != nil && !sel.Get(i) {
			continue
		}
		if uint64(k) >= uint64(n) {
			return fmt.Errorf("columnar: key %d outside domain [0, %d)", k, n)
		}
		dst.Add(k, vals[i])
	}
	return nil
}

// CountAggregate counts selected rows per key.
func CountAggregate(keys []int64, sel *Bitmap) (map[int64]int64, error) {
	if sel != nil && sel.Len() != len(keys) {
		return nil, fmt.Errorf("columnar: selection length %d != %d", sel.Len(), len(keys))
	}
	out := map[int64]int64{}
	for i, k := range keys {
		if sel == nil || sel.Get(i) {
			out[k]++
		}
	}
	return out, nil
}

// MergeGroups folds src into dst (the stage-2 reduction). Both must cover
// the same key domain; a key present in either is present in dst after.
func MergeGroups(dst, src *Groups) error {
	if len(dst.Sums) != len(src.Sums) {
		return fmt.Errorf("columnar: group domains %d != %d", len(dst.Sums), len(src.Sums))
	}
	for i, s := range src.Sums {
		dst.Sums[i] += s
	}
	count := 0
	for i, w := range src.present.words {
		dst.present.words[i] |= w
		count += bits.OnesCount64(dst.present.words[i])
	}
	dst.count = count
	return nil
}

// HashJoin probes each group key against a dimension table, summing values
// per dimension payload — the engine's aggregate-then-join pattern. Keys
// missing from the dimension are dropped (inner join).
func HashJoin(groups map[int64]int64, dim map[int64]string) map[string]int64 {
	out := map[string]int64{}
	for k, v := range groups {
		if label, ok := dim[k]; ok {
			out[label] += v
		}
	}
	return out
}

// Compute applies a column-wise arithmetic transform (val*scale + offset)
// over the selected rows, returning a new column aligned with the input.
func Compute(vals []int64, sel *Bitmap, scale, offset int64) []int64 {
	out := make([]int64, len(vals))
	for i, v := range vals {
		if sel == nil || sel.Get(i) {
			out[i] = v*scale + offset
		}
	}
	return out
}

// SortKeysByValueDesc orders group keys by descending aggregate, breaking
// ties by ascending key so results are deterministic.
func SortKeysByValueDesc(m map[int64]int64) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// TopN returns the first n keys of the descending-sum ordering.
func TopN(m map[int64]int64, n int) []int64 {
	keys := SortKeysByValueDesc(m)
	if n < len(keys) {
		keys = keys[:n]
	}
	return keys
}
