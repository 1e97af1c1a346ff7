package bloom

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.AddBytes(fmt.Appendf(nil, "key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContainBytes(fmt.Appendf(nil, "key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
	if f.Len() != 1000 {
		t.Fatalf("len = %d", f.Len())
	}
	// Neither an insert nor a probe allocates: BigTable pays both per key
	// on its read and seal paths.
	key := []byte("t3/k2999")
	for name, op := range map[string]func(){
		"AddBytes":        func() { f.AddBytes(key) },
		"MayContainBytes": func() { f.MayContainBytes(key) },
	} {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", name, n)
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 5000
	f := New(n, 0.01)
	for i := 0; i < n; i++ {
		f.AddBytes(fmt.Appendf(nil, "member-%d", i))
	}
	fps := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.MayContainBytes(fmt.Appendf(nil, "absent-%d", i)) {
			fps++
		}
	}
	rate := float64(fps) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f, want ~0.01", rate)
	}
}

func TestEmptyFilterRejectsEverything(t *testing.T) {
	f := New(100, 0.01)
	if f.MayContainBytes([]byte("anything")) {
		t.Fatal("empty filter claimed membership")
	}
}

func TestDegenerateArgsClamped(t *testing.T) {
	for _, f := range []*Filter{New(0, 0.01), New(100, 0), New(100, 1), New(-5, -3)} {
		f.AddBytes([]byte("x"))
		if !f.MayContainBytes([]byte("x")) {
			t.Fatal("clamped filter lost a key")
		}
		if f.nBits < 64 {
			t.Fatalf("bits = %d", f.nBits)
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	f := New(500, 0.05)
	seen := map[string]bool{}
	if err := quick.Check(func(key []byte) bool {
		f.AddBytes(key)
		seen[string(key)] = true
		for k := range seen {
			if !f.MayContainBytes([]byte(k)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSizingScalesWithTargets(t *testing.T) {
	loose := New(1000, 0.1)
	tight := New(1000, 0.001)
	if tight.nBits <= loose.nBits {
		t.Fatalf("tighter fp target should need more bits: %d <= %d", tight.nBits, loose.nBits)
	}
}

// randomKeys returns n seeded random keys of 0 to 40 arbitrary bytes.
func randomKeys(n int) [][]byte {
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, rng.IntN(41))
		for j := range keys[i] {
			keys[i][j] = byte(rng.Uint32())
		}
	}
	return keys
}

// TestHashesMatchHashFNV pins the inline hashes to hash/fnv's FNV-1a and
// FNV-1: every filter bit, and so every sealed table's filter, depends on
// them.
func TestHashesMatchHashFNV(t *testing.T) {
	for _, k := range randomKeys(2000) {
		h1, h2 := fnv.New64a(), fnv.New64()
		h1.Write(k)
		h2.Write(k)
		a, b := hashes(k)
		if a != h1.Sum64() || b != h2.Sum64()|1 {
			t.Fatalf("hashes(%q) = %x %x, hash/fnv gives %x %x", k, a, b, h1.Sum64(), h2.Sum64()|1)
		}
	}
}
