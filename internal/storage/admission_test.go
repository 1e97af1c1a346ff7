package storage

import (
	"fmt"
	"testing"

	"hyperprof/internal/stats"
)

func TestFreqSketchCountsAndDecays(t *testing.T) {
	s := newFreqSketch(100)
	for i := 0; i < 10; i++ {
		s.Touch("hot")
	}
	s.Touch("cold")
	if s.Estimate("hot") <= s.Estimate("cold") {
		t.Fatalf("hot=%d cold=%d", s.Estimate("hot"), s.Estimate("cold"))
	}
	if s.Estimate("never") != 0 {
		// Collisions possible but a fresh sketch this sparse should be clean.
		t.Fatalf("never-seen estimate = %d", s.Estimate("never"))
	}
	before := s.Estimate("hot")
	s.decay()
	if after := s.Estimate("hot"); after != before/2 {
		t.Fatalf("decay: %d -> %d", before, after)
	}
}

func TestFreqSketchSaturates(t *testing.T) {
	s := newFreqSketch(10)
	for i := 0; i < 1000; i++ {
		s.Touch("x")
	}
	if s.Estimate("x") > 255 {
		t.Fatal("counter overflow")
	}
}

func TestAdmissionProtectsHotKeys(t *testing.T) {
	// A small cache under a Zipf stream with scan pollution: the admission
	// policy must keep a better hot-key hit ratio than plain LRU.
	const capacity = 50 * 1000 // 50 objects of 1000 bytes
	run := func(admission bool) float64 {
		lru := newLRU(capacity)
		adm := newAdmissionCache(capacity, 2000)
		rng := stats.NewRNG(77)
		zipf := stats.NewZipf(rng, 500, 1.2)
		hits, lookups := 0, 0
		for i := 0; i < 30000; i++ {
			var key string
			if i%5 == 4 {
				// One-off scan key (pollution).
				key = fmt.Sprintf("scan-%d", i)
			} else {
				key = fmt.Sprintf("hot-%d", zipf.Next())
				lookups++
			}
			var hit bool
			if admission {
				hit = adm.Contains(key)
				if !hit {
					adm.Add(key, 1000)
				}
			} else {
				hit = lru.Contains(key)
				if !hit {
					lru.Add(key, 1000)
				}
			}
			if hit && key[0] == 'h' {
				hits++
			}
		}
		return float64(hits) / float64(lookups)
	}
	lruRatio := run(false)
	admRatio := run(true)
	if admRatio <= lruRatio {
		t.Fatalf("admission hit ratio %.3f <= LRU %.3f", admRatio, lruRatio)
	}
	// And the improvement is substantial under this pollution level.
	if admRatio < lruRatio*1.1 {
		t.Fatalf("admission gain too small: %.3f vs %.3f", admRatio, lruRatio)
	}
}

func TestAdmissionCacheBasics(t *testing.T) {
	c := newAdmissionCache(100, 50)
	if !c.Add("a", 60) {
		t.Fatal("empty-cache add rejected")
	}
	if !c.Contains("a") {
		t.Fatal("resident key missed")
	}
	// Updating a resident key always succeeds.
	if !c.Add("a", 80) {
		t.Fatal("resident update rejected")
	}
	if c.Used() != 80 {
		t.Fatalf("used = %d", c.Used())
	}
	// A cold candidate that would displace a hotter victim is rejected.
	for i := 0; i < 8; i++ {
		c.Contains("a")
	}
	if c.Add("coldling", 80) {
		t.Fatal("cold candidate displaced hot victim")
	}
	if !c.Contains("a") {
		t.Fatal("hot victim evicted")
	}
	// But a candidate hotter than the victim gets in.
	for i := 0; i < 20; i++ {
		c.sketch.Touch("rising-star")
	}
	if !c.Add("rising-star", 80) {
		t.Fatal("hot candidate rejected")
	}
	// It displaced exactly the LRU victim.
	if c.lru.Peek("a") || c.lru.Len() != 1 {
		t.Fatalf("victim a still resident or extra entries: len=%d", c.lru.Len())
	}
}

func TestAdmissionOversized(t *testing.T) {
	c := newAdmissionCache(100, 10)
	if c.Add("giant", 500) {
		t.Fatal("oversized object admitted")
	}
}
