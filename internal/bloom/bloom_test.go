package bloom

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContain(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
	if f.Len() != 1000 {
		t.Fatalf("len = %d", f.Len())
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 5000
	f := New(n, 0.01)
	for i := 0; i < n; i++ {
		f.Add(fmt.Sprintf("member-%d", i))
	}
	fps := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.MayContain(fmt.Sprintf("absent-%d", i)) {
			fps++
		}
	}
	rate := float64(fps) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f, want ~0.01", rate)
	}
	if est := f.EstimatedFPRate(); est > 0.02 {
		t.Fatalf("estimated rate %.4f", est)
	}
}

func TestEmptyFilterRejectsEverything(t *testing.T) {
	f := New(100, 0.01)
	if f.MayContain("anything") {
		t.Fatal("empty filter claimed membership")
	}
	if f.EstimatedFPRate() != 0 {
		t.Fatal("empty filter fp rate nonzero")
	}
}

func TestDegenerateArgsClamped(t *testing.T) {
	for _, f := range []*Filter{New(0, 0.01), New(100, 0), New(100, 1), New(-5, -3)} {
		f.Add("x")
		if !f.MayContain("x") {
			t.Fatal("clamped filter lost a key")
		}
		if f.Bits() < 64 {
			t.Fatalf("bits = %d", f.Bits())
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	f := New(500, 0.05)
	seen := map[string]bool{}
	if err := quick.Check(func(key string) bool {
		f.Add(key)
		seen[key] = true
		for k := range seen {
			if !f.MayContain(k) {
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
	if tight.Bits() <= loose.Bits() {
		t.Fatalf("tighter fp target should need more bits: %d <= %d", tight.Bits(), loose.Bits())
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
		if sa, sb := hashes(string(k)); sa != a || sb != b {
			t.Fatalf("string and byte hashes of %q differ", k)
		}
	}
}

// TestByteKeysMatchStringKeys builds one filter through Add and one
// through AddBytes from the same keys: their bits and lengths must be
// identical, MayContain and MayContainBytes must agree on every probe, and
// none of the four methods may allocate.
func TestByteKeysMatchStringKeys(t *testing.T) {
	keys := randomKeys(4000)
	viaString, viaBytes := New(len(keys)/2, 0.01), New(len(keys)/2, 0.01)
	for _, k := range keys[:len(keys)/2] {
		viaString.Add(string(k))
		viaBytes.AddBytes(k)
	}
	if !slices.Equal(viaString.bits, viaBytes.bits) || viaString.Len() != viaBytes.Len() {
		t.Fatalf("Add and AddBytes built different filters (len %d vs %d)", viaString.Len(), viaBytes.Len())
	}
	hits := 0
	for _, k := range keys {
		s, b := viaString.MayContain(string(k)), viaString.MayContainBytes(k)
		if s != b {
			t.Fatalf("MayContain(%q) = %v, MayContainBytes = %v", k, s, b)
		}
		if s {
			hits++
		}
	}
	if hits < len(keys)/2 || hits == len(keys) {
		t.Fatalf("%d of %d probes hit; want every member and not every absent key", hits, len(keys))
	}
	key := "t3/k2999"
	buf := []byte(key)
	for name, f := range map[string]func(){
		"Add":             func() { viaString.Add(key) },
		"AddBytes":        func() { viaBytes.AddBytes(buf) },
		"MayContain":      func() { viaString.MayContain(key) },
		"MayContainBytes": func() { viaBytes.MayContainBytes(buf) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", name, n)
		}
	}
}
