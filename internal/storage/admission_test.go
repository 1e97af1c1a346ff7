package storage

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"hyperprof/internal/stats"
)

func TestFreqSketchCountsAndDecays(t *testing.T) {
	const hot, cold, never = 1, 2, 3
	s := newFreqSketch(100)
	for i := 0; i < 10; i++ {
		s.Touch(hot)
	}
	s.Touch(cold)
	if s.Estimate(hot) <= s.Estimate(cold) {
		t.Fatalf("hot=%d cold=%d", s.Estimate(hot), s.Estimate(cold))
	}
	if s.Estimate(never) != 0 {
		// Collisions possible but a fresh sketch this sparse should be clean.
		t.Fatalf("never-seen estimate = %d", s.Estimate(never))
	}
	before := s.Estimate(hot)
	s.decay()
	if after := s.Estimate(hot); after != before/2 {
		t.Fatalf("decay: %d -> %d", before, after)
	}
}

func TestFreqSketchSaturates(t *testing.T) {
	s := newFreqSketch(10)
	for i := 0; i < 1000; i++ {
		s.Touch(7)
	}
	if s.Estimate(7) > 255 {
		t.Fatal("counter overflow")
	}
}

// TestFreqSketchHashesKeyBytes pins the sketch's inline hash to hash/fnv's
// FNV-1a over the key's eight little-endian bytes.
func TestFreqSketchHashesKeyBytes(t *testing.T) {
	s := newFreqSketch(10)
	for _, key := range []uint64{0, 1, 255, 256, 0x0102030405060708, 1<<32 | 7, ^uint64(0)} {
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64(nil, key))
		a := h.Sum64()
		b := a>>32 | a<<32
		if got, want := s.hashes(key), [4]uint64{a, a + b, a + 2*b, a + 3*b}; got != want {
			t.Fatalf("hashes(%#x) = %#x, want %#x", key, got, want)
		}
	}
}

// inRAM reports whether the RAM cache holds key, without touching recency.
func inRAM(s *TieredStore, key uint64) bool {
	i, ok := s.index.get(s.objs, key)
	return ok && s.ram.has(s.objs, i)
}

// admissionStore returns a TinyLFU (or plain LRU) store whose RAM holds
// ramCap bytes over SSD and HDD tiers that hold everything the tests write.
func admissionStore(t *testing.T, ramCap int64, policy Policy) *TieredStore {
	t.Helper()
	s, err := NewTieredStoreWithPolicy(Capacities{RAM: ramCap, SSD: 1 << 30, HDD: 1 << 31}, nil, policy)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAdmissionProtectsHotKeys checks scan resistance: a small RAM tier under
// a Zipf point-read stream with one-off scan reads keeps a better hot-key
// hit ratio under TinyLFU admission than under plain LRU.
func TestAdmissionProtectsHotKeys(t *testing.T) {
	const (
		capacity = 50 * 1000 // 50 objects of 1000 bytes
		reads    = 30000
		scanBase = 1 << 20 // scan keys: one per fifth read, never hot
	)
	run := func(policy Policy) float64 {
		s := admissionStore(t, capacity, policy)
		for k := uint64(0); k < 500; k++ {
			s.Write(k, 1000)
		}
		for i := uint64(4); i < reads; i += 5 {
			s.Write(scanBase+i, 1000)
		}
		rng := stats.NewRNG(77)
		zipf := stats.NewZipf(rng, 500, 1.2)
		hits, lookups := 0, 0
		for i := 0; i < reads; i++ {
			key := scanBase + uint64(i) // one-off scan key (pollution)
			if i%5 != 4 {
				key = uint64(zipf.Next())
				lookups++
			}
			_, tier, err := s.Read(key)
			if err != nil {
				t.Fatal(err)
			}
			if tier == RAM && key < scanBase {
				hits++
			}
		}
		return float64(hits) / float64(lookups)
	}
	lruRatio := run(LRUPolicy)
	admRatio := run(TinyLFUPolicy)
	if admRatio <= lruRatio {
		t.Fatalf("admission hit ratio %.3f <= LRU %.3f", admRatio, lruRatio)
	}
	// And the improvement is substantial under this pollution level.
	if admRatio < lruRatio*1.1 {
		t.Fatalf("admission gain too small: %.3f vs %.3f", admRatio, lruRatio)
	}
}

// TestAdmissionCacheBasics checks TinyLFU admission into RAM: a write enters
// while there is room, a resident object is refreshed in place, a cold
// newcomer cannot displace a hotter victim, and a hotter one does.
func TestAdmissionCacheBasics(t *testing.T) {
	const a, coldling, risingStar = 1, 2, 3
	s := admissionStore(t, 100, TinyLFUPolicy)
	s.Write(a, 60)
	if !inRAM(s, a) {
		t.Fatal("write into an empty RAM tier not admitted")
	}
	if _, tier, _ := s.Read(a); tier != RAM {
		t.Fatalf("resident key read from %v", tier)
	}
	// Rewriting a resident key always succeeds.
	s.Write(a, 80)
	if !inRAM(s, a) || s.Used(RAM) != 80 {
		t.Fatalf("resident rewrite: in RAM %v, RAM used = %d", inRAM(s, a), s.Used(RAM))
	}
	// A cold newcomer that would displace a hotter victim is kept out.
	for i := 0; i < 8; i++ {
		s.Read(a)
	}
	s.Write(coldling, 80)
	if inRAM(s, coldling) {
		t.Fatal("cold candidate displaced hot victim")
	}
	if !inRAM(s, a) {
		t.Fatal("hot victim evicted")
	}
	// But a newcomer hotter than the victim gets in.
	for i := 0; i < 20; i++ {
		s.sketch.Touch(risingStar)
	}
	s.Write(risingStar, 80)
	if !inRAM(s, risingStar) {
		t.Fatal("hot candidate rejected")
	}
	// It displaced exactly the LRU victim.
	if inRAM(s, a) || s.ram.Len() != 1 {
		t.Fatalf("victim a still resident or extra entries: len=%d", s.ram.Len())
	}
}

// TestAdmissionOversized checks that an object larger than the RAM tier is
// never admitted to it.
func TestAdmissionOversized(t *testing.T) {
	s := admissionStore(t, 100, TinyLFUPolicy)
	s.Write(1, 500)
	s.Read(1)
	if inRAM(s, 1) || s.Used(RAM) != 0 {
		t.Fatal("oversized object admitted")
	}
}
