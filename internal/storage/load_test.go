package storage

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// lruState lists a cache's entries most recent first as key:size, walking
// the list both ways so a broken back link shows up as a mismatch.
func lruState(t *testing.T, c *lruCache) []string {
	t.Helper()
	var fwd []string
	for e := c.head; e != nil; e = e.next {
		fwd = append(fwd, fmt.Sprintf("%s:%d", e.key, e.size))
	}
	var back []string
	for e := c.tail; e != nil; e = e.prev {
		back = append(back, fmt.Sprintf("%s:%d", e.key, e.size))
	}
	slices.Reverse(back)
	if !slices.Equal(fwd, back) || len(fwd) != len(c.entries) {
		t.Fatalf("lru links broken: forward %v, backward %v, %d entries", fwd, back, len(c.entries))
	}
	return fwd
}

// sameStore fails unless two stores hold the same objects, cache contents
// and order, tier usage and statistics.
func sameStore(t *testing.T, when string, want, got *TieredStore) {
	t.Helper()
	if !maps.Equal(want.objects, got.objects) || want.hddUsed != got.hddUsed {
		t.Fatalf("%s: objects/hddUsed differ: %d objects %d bytes vs %d objects %d bytes",
			when, len(want.objects), want.hddUsed, len(got.objects), got.hddUsed)
	}
	for _, c := range []struct {
		tier      string
		want, got *lruCache
	}{{"RAM", want.ram, got.ram}, {"SSD", want.ssd, got.ssd}} {
		if w, g := lruState(t, c.want), lruState(t, c.got); !slices.Equal(w, g) {
			t.Fatalf("%s: %s cache differs:\n Write loop %v\n Load       %v", when, c.tier, w, g)
		}
	}
	for _, tier := range Tiers() {
		if want.Used(tier) != got.Used(tier) || want.Stats(tier) != got.Stats(tier) {
			t.Fatalf("%s: %v differs: used %d %+v vs %d %+v", when, tier,
				want.Used(tier), want.Stats(tier), got.Used(tier), got.Stats(tier))
		}
	}
	if !reflect.DeepEqual(want.sketch, got.sketch) {
		t.Fatalf("%s: TinyLFU sketches differ", when)
	}
}

// FuzzTieredStoreLoad checks that Load leaves exactly what the Write loop
// leaves — both caches' contents and order, tier usage, statistics, objects
// and HDD usage, and the same error at the same key on overflow — and that
// the two stores stay equal through a few more reads, writes and deletes.
// dupEvery > 0 repeats an earlier key at every dupEvery-th position;
// prefill writes that many objects before the load.
func FuzzTieredStoreLoad(f *testing.F) {
	// RAM churns while SSD holds everything: Spanner's default shape.
	f.Add(uint32(48<<10), uint32(4<<20), uint32(16<<20), uint16(1500), int32(1024), uint8(0), false, uint8(0))
	// Entries larger than RAM, and larger than both caches.
	f.Add(uint32(1000), uint32(1<<20), uint32(1<<24), uint16(200), int32(4096), uint8(0), false, uint8(0))
	f.Add(uint32(1000), uint32(3000), uint32(1<<24), uint16(200), int32(4096), uint8(0), false, uint8(0))
	// HDD overflows part-way: the same error at the same key.
	f.Add(uint32(8<<10), uint32(64<<10), uint32(100<<10), uint16(300), int32(1024), uint8(0), false, uint8(0))
	// The TinyLFU fallback.
	f.Add(uint32(16<<10), uint32(256<<10), uint32(1<<20), uint16(400), int32(512), uint8(0), true, uint8(0))
	// A non-empty store falls back to the Write loop.
	f.Add(uint32(16<<10), uint32(256<<10), uint32(1<<20), uint16(400), int32(512), uint8(0), false, uint8(5))
	// Repeated keys, also rewriting one into a full HDD; zero-size objects; a
	// negative size.
	f.Add(uint32(8<<10), uint32(64<<10), uint32(1<<20), uint16(500), int32(700), uint8(3), false, uint8(0))
	f.Add(uint32(8<<10), uint32(64<<10), uint32(93<<10-1), uint16(300), int32(1024), uint8(3), false, uint8(0))
	f.Add(uint32(100), uint32(100), uint32(100), uint16(50), int32(0), uint8(0), false, uint8(0))
	f.Add(uint32(100), uint32(100), uint32(100), uint16(50), int32(-1), uint8(0), false, uint8(0))
	f.Fuzz(func(t *testing.T, ramCap, ssdCap, hddCap uint32, nKeys uint16, size int32, dupEvery uint8, tinyLFU bool, prefill uint8) {
		caps := Capacities{RAM: int64(ramCap) + 1, SSD: int64(ssdCap) + 1, HDD: int64(hddCap) + 1}
		policy := LRUPolicy
		if tinyLFU {
			policy = TinyLFUPolicy
		}
		keys := make([]string, nKeys%2048)
		for i := range keys {
			k := i
			if dupEvery > 0 && i%int(dupEvery) == 0 {
				k = i / 2
			}
			keys[i] = fmt.Sprintf("k%d", k)
		}
		stores := [2]*TieredStore{}
		for i := range stores {
			s, err := NewTieredStoreWithPolicy(caps, nil, policy)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < int(prefill%8); j++ {
				s.Write(fmt.Sprintf("pre%d", j), int64(j+1)*100)
			}
			stores[i] = s
		}
		want, got := stores[0], stores[1]
		var wantErr error
		for _, k := range keys {
			if _, err := want.Write(k, int64(size)); err != nil {
				wantErr = err
				break
			}
		}
		gotErr := got.Load(keys, int64(size))
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) || errors.Is(wantErr, ErrFull) != errors.Is(gotErr, ErrFull) {
			t.Fatalf("Load error %v, Write loop %v", gotErr, wantErr)
		}
		sameStore(t, "after load", want, got)
		for _, s := range stores {
			for j := 0; j < len(keys); j += 7 {
				s.Read(keys[j])
			}
			s.Write("late", 1+int64(size%97))
			if len(keys) > 0 {
				s.Delete(keys[len(keys)/2])
			}
		}
		sameStore(t, "after more operations", want, got)
	})
}
