package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sketchWorkloads produces seeded observation streams shaped like the
// simulator's latency populations: lognormal service times, heavy Pareto
// tails, bimodal cache hit/miss mixes, and a stream with genuine zeros.
func sketchWorkloads(seed int64, n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	ws := make(map[string][]float64)

	lognorm := make([]float64, n)
	for i := range lognorm {
		lognorm[i] = math.Exp(rng.NormFloat64()*1.5 + 10) // ~22µs median in ns
	}
	ws["lognormal"] = lognorm

	pareto := make([]float64, n)
	for i := range pareto {
		pareto[i] = 1e3 * math.Pow(rng.Float64(), -1/1.2) // α=1.2 heavy tail
	}
	ws["pareto"] = pareto

	bimodal := make([]float64, n)
	for i := range bimodal {
		if rng.Float64() < 0.9 {
			bimodal[i] = 5e3 + rng.Float64()*1e3 // cache hit
		} else {
			bimodal[i] = 2e6 + rng.Float64()*5e5 // miss
		}
	}
	ws["bimodal"] = bimodal

	withZeros := make([]float64, n)
	for i := range withZeros {
		if rng.Float64() < 0.05 {
			withZeros[i] = 0
		} else {
			withZeros[i] = rng.Float64() * 1e6
		}
	}
	ws["with-zeros"] = withZeros
	return ws
}

// exactQuantile is the nearest-rank quantile the sketch documents itself
// against.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestSketchQuantileAccuracy is the accuracy property test: across seeded
// workloads and error bounds, every reported quantile must be within the
// documented relative error of the exact nearest-rank quantile, and
// Max/Mean within the same bound of their exact counterparts. The same
// values fed in reverse must give bit-identical outputs.
func TestSketchQuantileAccuracy(t *testing.T) {
	quantiles := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	for _, relErr := range []float64{0.01, 0.05} {
		for seed := int64(1); seed <= 3; seed++ {
			for name, vals := range sketchWorkloads(seed, 20000) {
				s := NewSketch(relErr)
				for _, v := range vals {
					s.Add(v)
				}
				sorted := append([]float64(nil), vals...)
				sort.Float64s(sorted)

				within := func(got, want float64) bool {
					if want == 0 {
						return got == 0
					}
					return math.Abs(got-want) <= relErr*want*(1+1e-12)
				}
				for _, q := range quantiles {
					want := exactQuantile(sorted, q)
					got := s.Quantile(q)
					if !within(got, want) {
						t.Errorf("α=%g seed=%d %s: Quantile(%g)=%g, exact %g, rel err %g > %g",
							relErr, seed, name, q, got, want, math.Abs(got-want)/want, relErr)
					}
				}
				if got, want := s.Max(), sorted[len(sorted)-1]; !within(got, want) {
					t.Errorf("α=%g seed=%d %s: Max()=%g, exact %g", relErr, seed, name, got, want)
				}
				var sum float64
				for _, v := range sorted {
					sum += v
				}
				if got, want := s.Mean(), sum/float64(len(sorted)); math.Abs(got-want) > relErr*want {
					t.Errorf("α=%g seed=%d %s: Mean()=%g, exact %g", relErr, seed, name, got, want)
				}
				if s.N() != len(vals) {
					t.Errorf("α=%g seed=%d %s: N()=%d, want %d", relErr, seed, name, s.N(), len(vals))
				}

				// The same values in reverse order give the same bits.
				r := NewSketch(relErr)
				for i := len(vals) - 1; i >= 0; i-- {
					r.Add(vals[i])
				}
				same := func(what string, a, b float64) {
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Errorf("α=%g seed=%d %s: %s forward %v, reversed %v", relErr, seed, name, what, a, b)
					}
				}
				same("Sum()", s.Sum(), r.Sum())
				same("Mean()", s.Mean(), r.Mean())
				same("Max()", s.Max(), r.Max())
				for _, q := range quantiles {
					same(fmt.Sprintf("Quantile(%g)", q), s.Quantile(q), r.Quantile(q))
				}
			}
		}
	}
}

// TestSketchBoundedMemory pins the memory claim: the bucket count must not
// grow with the observation count, only with the value range and α.
func TestSketchBoundedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSketch(0.01)
	var after1e4 int
	for i := 0; i < 1_000_000; i++ {
		// ns through hours: 9 decades.
		s.Add(math.Exp(rng.Float64() * math.Log(3.6e12)))
		if i == 1e4-1 {
			after1e4 = s.Buckets()
		}
	}
	if s.Buckets() > 2200 {
		t.Fatalf("sketch used %d buckets over 9 decades at α=1%%, want ≤ 2200", s.Buckets())
	}
	// 100x more observations may only fill in the tail of the fixed key
	// range, not grow proportionally.
	if s.Buckets() > after1e4+after1e4/4 {
		t.Fatalf("buckets grew from %d to %d between 10k and 1M observations; growth must flatten", after1e4, s.Buckets())
	}
}

// TestSketchReset checks Reset empties the sketch and reuses capacity.
func TestSketchReset(t *testing.T) {
	s := NewSketch(0.01)
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	s.Reset()
	if s.N() != 0 || s.Buckets() != 0 || s.Quantile(0.5) != 0 || s.Sum() != 0 {
		t.Fatalf("sketch not empty after Reset: n=%d buckets=%d", s.N(), s.Buckets())
	}
	s.Add(3)
	if got := s.Quantile(1); math.Abs(got-3) > 0.01*3 {
		t.Fatalf("Quantile(1)=%g after reuse, want ~3", got)
	}
}
