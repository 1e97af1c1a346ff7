package storage

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// lruState lists a cache's objects most recent first as key:size, walking
// its links through the slab both ways, so a broken back link shows up as a
// mismatch. It also checks the header's count and byte total.
func lruState(t *testing.T, s *TieredStore, c *lruCache) []string {
	t.Helper()
	var fwd []string
	var used int64
	listed := make([]bool, len(s.objs))
	for i := c.head; i != nilSlot; i = s.objs[i].lru[c.tier].next - 1 {
		o := s.objs[i]
		if !c.has(s.objs, i) || listed[i] {
			t.Fatalf("%v list holds uncached or repeated slot %d", c.tier, i)
		}
		listed[i] = true
		fwd = append(fwd, fmt.Sprintf("%d:%d", o.key, o.size))
		used += o.size
	}
	var back []string
	for i := c.tail; i != nilSlot; i = s.objs[i].lru[c.tier].prev - 1 {
		back = append(back, fmt.Sprintf("%d:%d", s.objs[i].key, s.objs[i].size))
	}
	// Every slot outside the list holds a zero link, so has reports it
	// uncached: a stale link would name an object the list does not hold.
	for i, o := range s.objs {
		if !listed[i] && o.lru[c.tier] != (link{}) {
			t.Fatalf("%v cache does not list slot %d (key %d), which holds link %+v", c.tier, i, o.key, o.lru[c.tier])
		}
	}
	slices.Reverse(back)
	if !slices.Equal(fwd, back) || len(fwd) != c.Len() || used != c.Used() || used > c.capacity {
		t.Fatalf("%v links broken: forward %v, backward %v, %d objects, %d of %d bytes used, %d linked",
			c.tier, fwd, back, c.Len(), c.Used(), c.capacity, used)
	}
	return fwd
}

// slots lists the slots the index holds, in table order. Only tests range
// over the index.
func (x *slotIndex) slots() []int32 {
	var out []int32
	for _, s := range x.table {
		if s != 0 {
			out = append(out, s-1)
		}
	}
	return out
}

// storedObjects maps each stored key to its size, checking that the index
// and the slab agree: each indexed slot's key looks up that slot, no key is
// indexed twice, and every slab slot is indexed or free.
func storedObjects(t *testing.T, s *TieredStore) map[uint64]int64 {
	t.Helper()
	slots := s.index.slots()
	out := make(map[uint64]int64, len(slots))
	for _, i := range slots {
		k := s.objs[i].key
		if j, ok := s.index.get(s.objs, k); !ok || j != i {
			t.Fatalf("index holds slot %d for key %d, but the lookup finds slot %d (%v)", i, k, j, ok)
		}
		if _, dup := out[k]; dup {
			t.Fatalf("index holds key %d twice", k)
		}
		out[k] = s.objs[i].size
	}
	if len(slots) != s.index.n || s.index.n+len(s.free) != len(s.objs) {
		t.Fatalf("%d indexed slots (count %d) + %d free slots != %d in the slab",
			len(slots), s.index.n, len(s.free), len(s.objs))
	}
	return out
}

// sameStore fails unless two stores hold the same objects, cache contents
// and order, tier usage and statistics.
func sameStore(t *testing.T, when string, want, got *TieredStore) {
	t.Helper()
	if !maps.Equal(storedObjects(t, want), storedObjects(t, got)) || want.hddUsed != got.hddUsed {
		t.Fatalf("%s: objects/hddUsed differ: %d objects %d bytes vs %d objects %d bytes",
			when, want.index.n, want.hddUsed, got.index.n, got.hddUsed)
	}
	for _, tier := range []Tier{RAM, SSD} {
		w, g := lruState(t, want, want.cache(tier)), lruState(t, got, got.cache(tier))
		if !slices.Equal(w, g) {
			t.Fatalf("%s: %v cache differs:\n Write loop %v\n Load       %v", when, tier, w, g)
		}
	}
	for _, tier := range Tiers() {
		if used(want, tier) != used(got, tier) || want.Stats(tier) != got.Stats(tier) {
			t.Fatalf("%s: %v differs: used %d %+v vs %d %+v", when, tier,
				used(want, tier), want.Stats(tier), used(got, tier), got.Stats(tier))
		}
	}
	if !reflect.DeepEqual(want.sketch, got.sketch) {
		t.Fatalf("%s: TinyLFU sketches differ", when)
	}
}

// cache returns the store's RAM or SSD cache.
func (s *TieredStore) cache(t Tier) *lruCache {
	if t == RAM {
		return &s.ram
	}
	return &s.ssd
}

// FuzzTieredStoreLoad checks that Load leaves exactly what the Write loop
// leaves — both caches' contents and order, walked both ways through the
// slab, tier usage, statistics, objects and HDD usage, and the same error at
// the same key on overflow — and that the two stores stay equal through more
// reads, writes and deletes. Those include the two paths the slab adds: an
// overwrite that resizes an object while it is cached, and a Delete followed
// by a Write of a new key, which takes the freed slot. dupEvery > 0 repeats
// an earlier key at every dupEvery-th position; prefill writes that many
// objects before the load.
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
		keys := make([]uint64, nKeys%2048)
		for i := range keys {
			k := i
			if dupEvery > 0 && i%int(dupEvery) == 0 {
				k = i / 2
			}
			keys[i] = uint64(k)
		}
		const (
			pre   = 1 << 40 // prefill keys
			fresh = 1 << 41 // keys first written after the load
		)
		stores := [2]*TieredStore{}
		for i := range stores {
			s, err := NewTieredStoreWithPolicy(caps, nil, policy)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < int(prefill%8); j++ {
				s.Write(pre+uint64(j), int64(j+1)*100)
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
			s.Write(fresh, 1+int64(size%97))
			if len(keys) > 0 {
				s.Delete(keys[len(keys)/2])
			}
		}
		sameStore(t, "after more operations", want, got)
		if len(keys) == 0 {
			return
		}
		// Resize the most recently written loaded key while it is cached
		// (the read promotes it), growing and then shrinking it.
		last := keys[len(keys)-1]
		for _, s := range stores {
			s.Read(last)
			for _, sz := range []int64{2*int64(size) + 1, int64(size) / 2} {
				s.Write(last, sz)
			}
		}
		sameStore(t, "after resizing a cached object", want, got)
		// A new key takes the slot the last Delete freed.
		victim := keys[0]
		for _, s := range stores {
			i, ok := s.index.get(s.objs, victim)
			s.Delete(victim)
			if _, err := s.Write(fresh+1, 1+int64(size%89)); err != nil || !ok {
				continue
			}
			if j, _ := s.index.get(s.objs, fresh+1); j != i {
				t.Fatalf("new key took slot %d, not the freed slot %d", j, i)
			}
		}
		for _, s := range stores {
			s.Read(fresh + 1)
			s.Read(last)
		}
		sameStore(t, "after a delete and a new key", want, got)
		// A burst of Deletes empties probe runs the load filled, then a
		// deleted loaded key is written again and must be found and read.
		again := keys[len(keys)/3]
		for _, s := range stores {
			for j := len(keys) / 3; j < len(keys); j += 2 {
				s.Delete(keys[j])
			}
			if s.Has(again) {
				t.Fatalf("deleted key %d still stored", again)
			}
			_, werr := s.Write(again, 1+int64(size%83))
			if werr == nil && !s.Has(again) {
				t.Fatalf("re-written key %d not found", again)
			}
			for j := 0; j < len(keys); j += 5 {
				s.Read(keys[j])
			}
			s.Read(again)
		}
		sameStore(t, "after a burst of deletes and a re-write", want, got)
	})
}
