package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Summary accumulates scalar observations and reports moments and quantiles.
// It keeps all values; the experiment scales in this repository make that
// cheap, and exact quantiles simplify validation against the paper.
type Summary struct {
	vals   []float64
	sorted bool
	sum    float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
	s.sum += v
}

// N returns the number of observations.
func (s *Summary) N() int { return len(s.vals) }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation,
// or 0 for an empty summary.
func (s *Summary) Quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if q <= 0 {
		return s.vals[0]
	}
	if q >= 1 {
		return s.vals[len(s.vals)-1]
	}
	pos := q * float64(len(s.vals)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s.vals) {
		return s.vals[lo]
	}
	return s.vals[lo]*(1-frac) + s.vals[lo+1]*frac
}

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.Quantile(1) }

// String renders a compact human-readable summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p99=%.3g max=%.3g",
		s.N(), s.Mean(), s.Quantile(0.5), s.Quantile(0.99), s.Max())
}

// Fractions normalizes a map of non-negative weights into fractions that sum
// to 1. A zero-total map returns all zeros. The total is accumulated in sorted
// key order so the result is bit-identical across runs; float addition is not
// associative, so summing in Go's randomized map order can drift by an ulp.
func Fractions[K cmp.Ordered](weights map[K]float64) map[K]float64 {
	keys := make([]K, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	total := 0.0
	for _, k := range keys {
		total += weights[k]
	}
	out := make(map[K]float64, len(weights))
	for k, w := range weights {
		if total > 0 {
			out[k] = w / total
		} else {
			out[k] = 0
		}
	}
	return out
}
