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
// is the key's FNV-1a hash, b its FNV-1 hash made odd. A string and a byte
// slice with equal contents hash alike.
func hashes[K string | []byte](key K) (a, b uint64) {
	a, b = fnvOffset64, fnvOffset64
	for i := 0; i < len(key); i++ {
		a ^= uint64(key[i])
		a *= fnvPrime64
		b *= fnvPrime64
		b ^= uint64(key[i])
	}
	return a, b | 1 // odd so the stride visits all positions
}

// add sets the key's k bits.
func (f *Filter) add(a, b uint64) {
	for i := 0; i < f.k; i++ {
		pos := (a + uint64(i)*b) % f.nBits
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.nAdded++
}

// mayContain reports whether all of the key's k bits are set.
func (f *Filter) mayContain(a, b uint64) bool {
	for i := 0; i < f.k; i++ {
		pos := (a + uint64(i)*b) % f.nBits
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Add inserts a key.
func (f *Filter) Add(key string) { f.add(hashes(key)) }

// AddBytes inserts the key held in a byte slice; it sets the bits Add sets
// for the equal string.
func (f *Filter) AddBytes(key []byte) { f.add(hashes(key)) }

// MayContain reports whether the key might be in the set. False positives
// are possible at roughly the configured rate; false negatives are not.
func (f *Filter) MayContain(key string) bool { return f.mayContain(hashes(key)) }

// MayContainBytes is MayContain for a key held in a byte slice.
func (f *Filter) MayContainBytes(key []byte) bool { return f.mayContain(hashes(key)) }

// Len returns the number of keys added.
func (f *Filter) Len() int { return f.nAdded }

// Bits returns the filter's size in bits (for storage accounting).
func (f *Filter) Bits() uint64 { return f.nBits }

// EstimatedFPRate returns the theoretical false-positive rate at the
// current fill: (1 - e^{-kn/m})^k.
func (f *Filter) EstimatedFPRate() float64 {
	if f.nAdded == 0 {
		return 0
	}
	exp := -float64(f.k) * float64(f.nAdded) / float64(f.nBits)
	return math.Pow(1-math.Exp(exp), float64(f.k))
}
