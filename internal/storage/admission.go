package storage

// This file implements a frequency-aware cache admission policy in the
// TinyLFU family, the practical form of §3's suggestion to place data
// between storage tiers with learned/frequency signals instead of pure
// recency. A compact count-min sketch estimates each key's access
// frequency; on insertion pressure, a new key is admitted only if it is
// estimated hotter than the eviction victim. Under the Zipf access skew of
// big-data workloads this protects the hot head from scan pollution.

// freqSketch is a 4-row count-min sketch with halving decay.
type freqSketch struct {
	rows    [4][]uint8
	mask    uint64
	adds    int
	decayAt int
}

// newFreqSketch sizes the sketch for roughly the given key population.
func newFreqSketch(keys int) *freqSketch {
	size := uint64(1)
	for size < uint64(keys)*2 {
		size <<= 1
	}
	if size < 64 {
		size = 64
	}
	s := &freqSketch{mask: size - 1, decayAt: int(size) * 8}
	for i := range s.rows {
		s.rows[i] = make([]uint8, size)
	}
	return s
}

// FNV-1a, 64-bit, written inline: hash/fnv's Hash allocates per use.
const fnvOffset64 uint64 = 14695981039346656037

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * 1099511628211 }

// hashes derives the four row indexes of a key from one FNV-1a hash of its
// eight little-endian bytes.
func (s *freqSketch) hashes(key uint64) [4]uint64 {
	a := fnvOffset64
	for i := 0; i < 8; i++ {
		a = fnvByte(a, byte(key>>(8*i)))
	}
	b := a>>32 | a<<32
	return [4]uint64{a, a + b, a + 2*b, a + 3*b}
}

// Touch records one access.
func (s *freqSketch) Touch(key uint64) {
	hs := s.hashes(key)
	for i := range s.rows {
		idx := hs[i] & s.mask
		if s.rows[i][idx] < 255 {
			s.rows[i][idx]++
		}
	}
	s.adds++
	if s.adds >= s.decayAt {
		s.decay()
	}
}

// Estimate returns the minimum-counter frequency estimate.
func (s *freqSketch) Estimate(key uint64) uint8 {
	hs := s.hashes(key)
	est := uint8(255)
	for i := range s.rows {
		if v := s.rows[i][hs[i]&s.mask]; v < est {
			est = v
		}
	}
	return est
}

// decay halves all counters, aging out stale popularity.
func (s *freqSketch) decay() {
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] >>= 1
		}
	}
	s.adds = 0
}
