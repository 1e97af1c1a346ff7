package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds agree on %d/1000 draws", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero seed produced only %d distinct values", len(seen))
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	r := NewRNG(7)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if frac < 0.08 || frac > 0.12 {
			t.Fatalf("bucket %d fraction %.3f, want ~0.10", i, frac)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	var s Summary
	for i := 0; i < 50000; i++ {
		v := r.Exp(4.0)
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		s.Add(v)
	}
	if m := s.Mean(); math.Abs(m-4.0) > 0.1 {
		t.Fatalf("Exp mean = %.3f, want ~4", m)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(13)
	var s Summary
	for i := 0; i < 50000; i++ {
		s.Add(r.Norm(10, 2))
	}
	if m := s.Mean(); math.Abs(m-10) > 0.1 {
		t.Fatalf("Norm mean = %.3f", m)
	}
	var acc float64
	for _, v := range s.vals {
		acc += (v - s.Mean()) * (v - s.Mean())
	}
	if sd := math.Sqrt(acc / float64(s.N()-1)); math.Abs(sd-2) > 0.1 {
		t.Fatalf("Norm stddev = %.3f", sd)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(15)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(1, 0.5); v <= 0 {
			t.Fatalf("non-positive lognormal %v", v)
		}
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 1000; i++ {
		if v := r.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto sample %v below xm", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.2)
		if v < 80 || v > 120 {
			t.Fatalf("jitter %v outside [80,120]", v)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(21)
	f1 := r.Fork()
	f2 := r.Fork()
	same := 0
	for i := 0; i < 1000; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forks agree on %d/1000 draws", same)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := NewRNG(23)
	z := NewZipf(r, 1000, 1.1)
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate rank 9 roughly by (10/1)^1.1.
	if counts[0] < counts[9]*5 {
		t.Fatalf("insufficient skew: rank0=%d rank9=%d", counts[0], counts[9])
	}
	// Monotone-ish at the head.
	if counts[0] < counts[1] || counts[1] < counts[3] {
		t.Fatalf("head not decreasing: %v", counts[:5])
	}
}

func TestZipfSEqualsOne(t *testing.T) {
	r := NewRNG(25)
	z := NewZipf(r, 100, 1.0)
	for i := 0; i < 10000; i++ {
		if v := z.Next(); v < 0 || v >= 100 {
			t.Fatalf("out of range %d", v)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(1)
	mustPanic(t, func() { NewZipf(r, 0, 1) })
	mustPanic(t, func() { NewZipf(r, 10, 0) })
}

func TestWeightedDistribution(t *testing.T) {
	r := NewRNG(27)
	w := NewWeighted(r, []float64{1, 2, 7})
	counts := make([]int, 3)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[w.Next()]++
	}
	wantFrac := []float64{0.1, 0.2, 0.7}
	for i, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-wantFrac[i]) > 0.02 {
			t.Fatalf("bucket %d frac %.3f want %.1f", i, frac, wantFrac[i])
		}
	}
}

func TestWeightedZeroWeightNeverDrawn(t *testing.T) {
	r := NewRNG(29)
	w := NewWeighted(r, []float64{0, 1, 0})
	for i := 0; i < 10000; i++ {
		if v := w.Next(); v != 1 {
			t.Fatalf("drew zero-weight index %d", v)
		}
	}
}

func TestWeightedPanics(t *testing.T) {
	r := NewRNG(1)
	mustPanic(t, func() { NewWeighted(r, nil) })
	mustPanic(t, func() { NewWeighted(r, []float64{0, 0}) })
	mustPanic(t, func() { NewWeighted(r, []float64{-1, 2}) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty summary should report zeros")
	}
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.N() != 5 || s.sum != 15 || s.Mean() != 3 {
		t.Fatalf("n=%d sum=%v mean=%v", s.N(), s.sum, s.Mean())
	}
	if s.Quantile(0) != 1 || s.Max() != 5 {
		t.Fatalf("min=%v max=%v", s.Quantile(0), s.Max())
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := s.Quantile(0.25); q != 2 {
		t.Fatalf("p25 = %v", q)
	}
}

func TestSummaryQuantileInterpolation(t *testing.T) {
	var s Summary
	s.Add(0)
	s.Add(10)
	if q := s.Quantile(0.5); q != 5 {
		t.Fatalf("interpolated median = %v, want 5", q)
	}
}

func TestSummaryAddAfterQuantile(t *testing.T) {
	var s Summary
	s.Add(5)
	s.Add(1)
	_ = s.Quantile(0.5) // forces sort
	s.Add(3)
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("median after re-add = %v, want 3", q)
	}
}

func TestSummaryQuantileMonotone(t *testing.T) {
	r := NewRNG(31)
	var s Summary
	for i := 0; i < 1000; i++ {
		s.Add(r.Float64() * 100)
	}
	if err := quick.Check(func(a, b float64) bool {
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return s.Quantile(qa) <= s.Quantile(qb)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFractions(t *testing.T) {
	f := Fractions(map[string]float64{"a": 1, "b": 3})
	if math.Abs(f["a"]-0.25) > 1e-12 || math.Abs(f["b"]-0.75) > 1e-12 {
		t.Fatalf("fractions = %v", f)
	}
	z := Fractions(map[string]float64{"a": 0})
	if z["a"] != 0 {
		t.Fatalf("zero-total fractions = %v", z)
	}
}
