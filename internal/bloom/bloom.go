// Package bloom implements a Bloom filter from first principles. BigTable
// attaches a filter to every SSTable so point reads skip storage probes for
// tables that cannot contain the key — the mechanism behind the read-path
// behaviour the paper's BigTable characterization reflects (§2.2.2).
package bloom

import "math"

// Filter is a classic k-hash Bloom filter over a bit array. The zero value
// is not usable; create one with New.
type Filter struct {
	bits   []uint64
	nBits  uint64
	k      int
	nAdded int
}

// New creates a filter sized for the expected number of elements at the
// target false-positive rate (0 < fp < 1). Degenerate arguments are clamped
// to a minimal usable filter.
func New(expected int, fp float64) *Filter {
	if expected < 1 {
		expected = 1
	}
	if fp <= 0 || fp >= 1 {
		fp = 0.01
	}
	// Optimal sizing: m = -n ln p / (ln 2)^2, k = m/n ln 2.
	m := uint64(math.Ceil(-float64(expected) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(expected) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{bits: make([]uint64, (m+63)/64), nBits: m, k: k}
}

// FNV-1a and FNV-1 64-bit parameters (hash/fnv's, computed inline so a key
// never has to be converted or passed through an interface).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashes derives k bit positions via double hashing of two FNV variants: a
// is the key's FNV-1a hash, b its FNV-1 hash made odd.
func hashes(key []byte) (a, b uint64) {
	a, b = fnvOffset64, fnvOffset64
	for _, c := range key {
		a ^= uint64(c)
		a *= fnvPrime64
		b *= fnvPrime64
		b ^= uint64(c)
	}
	return a, b | 1 // odd so the stride visits all positions
}

// AddBytes inserts the key held in a byte slice by setting its k bits.
func (f *Filter) AddBytes(key []byte) {
	a, b := hashes(key)
	for i := 0; i < f.k; i++ {
		pos := (a + uint64(i)*b) % f.nBits
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.nAdded++
}

// MayContainBytes reports whether the key held in a byte slice might be in
// the set: whether all of its k bits are set. False positives are possible
// at roughly the configured rate; false negatives are not.
func (f *Filter) MayContainBytes(key []byte) bool {
	a, b := hashes(key)
	for i := 0; i < f.k; i++ {
		pos := (a + uint64(i)*b) % f.nBits
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Len returns the number of keys added.
func (f *Filter) Len() int { return f.nAdded }
