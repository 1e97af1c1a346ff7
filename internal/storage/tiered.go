package storage

import (
	"errors"
	"fmt"
	"time"
)

// Errors returned by TieredStore operations.
var (
	ErrNotFound = errors.New("storage: object not found")
	ErrFull     = errors.New("storage: backing store full")
)

// TierStats counts accesses and bytes moved at one tier.
type TierStats struct {
	Reads     int64
	Writes    int64
	BytesRead int64
	BytesWrit int64
}

// TieredStore is one server's storage stack: a RAM read-cache/write-buffer
// over an SSD cache over HDD backing, the structure §3 describes. Reads probe
// RAM, then SSD, then HDD, promoting on miss; writes land in the RAM buffer
// and are durably accounted against HDD backing (the platforms model their
// own log/flush costs explicitly).
//
// Objects are named by integer keys. One index maps each key to its slot in
// a pointer-free object slab, and both caches are recency lists threaded
// through the slab, so every operation is one index lookup at most. Nothing
// ranges over the index: eviction order depends only on operation order.
type TieredStore struct {
	params  [3]TierParams
	ram     lruCache
	ssd     lruCache
	hddCap  int64
	hddUsed int64
	index   slotIndex // stored object keys to their slots in objs
	objs    []object
	free    []int32 // slots Delete released, reused before objs grows
	stats   [3]TierStats
	// sketch, when non-nil, gates RAM admission by estimated frequency
	// (the TinyLFU policy).
	sketch *freqSketch
}

// Policy selects the RAM tier's cache-management policy.
type Policy int

// The available policies.
const (
	// LRUPolicy is plain recency-based caching (the default).
	LRUPolicy Policy = iota
	// TinyLFUPolicy adds frequency-sketch admission, §3's
	// learned-placement direction: cold insertions cannot displace
	// estimated-hotter residents.
	TinyLFUPolicy
)

// NewTieredStore creates a store with the given per-tier capacities and
// access parameters (nil params selects DefaultTierParams), using the
// default LRU policy.
func NewTieredStore(caps Capacities, params map[Tier]TierParams) (*TieredStore, error) {
	return NewTieredStoreWithPolicy(caps, params, LRUPolicy)
}

// NewTieredStoreWithPolicy creates a store with an explicit RAM policy.
func NewTieredStoreWithPolicy(caps Capacities, params map[Tier]TierParams, policy Policy) (*TieredStore, error) {
	if err := caps.Validate(); err != nil {
		return nil, err
	}
	if params == nil {
		params = DefaultTierParams()
	}
	s := &TieredStore{
		ram:    newLRU(RAM, caps[RAM]),
		ssd:    newLRU(SSD, caps[SSD]),
		hddCap: caps[HDD],
	}
	for t := range s.params {
		s.params[t] = params[Tier(t)]
	}
	if policy == TinyLFUPolicy {
		// Size the sketch for the number of RAM-cacheable objects.
		keys := int(caps[RAM] / 1024)
		if keys < 256 {
			keys = 256
		}
		s.sketch = newFreqSketch(keys)
	}
	return s, nil
}

// admitRAM inserts slot i into the RAM cache subject to the policy.
func (s *TieredStore) admitRAM(i int32) {
	if s.sketch != nil {
		o := &s.objs[i]
		s.sketch.Touch(o.key)
		if !s.ram.has(s.objs, i) && s.ram.Used()+o.size > s.ram.capacity && o.size <= s.ram.capacity {
			if v := s.ram.tail; v != nilSlot && s.sketch.Estimate(o.key) < s.sketch.Estimate(s.objs[v].key) {
				return // colder than the victim it would displace
			}
		}
	}
	s.ram.add(s.objs, i)
}

// Capacity returns the configured capacity of a tier.
func (s *TieredStore) Capacity(t Tier) int64 {
	switch t {
	case RAM:
		return s.ram.capacity
	case SSD:
		return s.ssd.capacity
	default:
		return s.hddCap
	}
}

// Stats returns the access statistics for a tier.
func (s *TieredStore) Stats(t Tier) TierStats { return s.stats[t] }

// Has reports whether the object exists in the backing store.
func (s *TieredStore) Has(key uint64) bool {
	_, ok := s.index.get(s.objs, key)
	return ok
}

// Read fetches an object, returning the modeled access time and the tier
// that served it. Lower-tier hits promote the object into the caches above.
func (s *TieredStore) Read(key uint64) (time.Duration, Tier, error) {
	i, ok := s.index.get(s.objs, key)
	if !ok {
		return 0, HDD, errNotFound(key)
	}
	size := s.objs[i].size
	if s.sketch != nil {
		s.sketch.Touch(key)
	}
	switch {
	case s.ram.touch(s.objs, i):
		s.account(RAM, size, false)
		return s.params[RAM].AccessTime(size), RAM, nil
	case s.ssd.touch(s.objs, i):
		s.account(SSD, size, false)
		s.admitRAM(i)
		return s.params[SSD].AccessTime(size), SSD, nil
	default:
		s.account(HDD, size, false)
		s.ssd.add(s.objs, i)
		s.admitRAM(i)
		return s.params[HDD].AccessTime(size), HDD, nil
	}
}

// Write stores an object: it is accounted against HDD backing immediately
// (durability is the platform's concern) and lands in the RAM write buffer
// and SSD cache. The returned duration is the RAM buffer access; flush and
// log costs are modeled by callers via RawAccess.
func (s *TieredStore) Write(key uint64, size int64) (time.Duration, error) {
	if size < 0 {
		return 0, errNegativeSize(size)
	}
	i, ok := s.index.get(s.objs, key)
	var old int64
	if ok {
		old = s.objs[i].size
	}
	if s.hddUsed-old+size > s.hddCap {
		return 0, errFull(size)
	}
	s.hddUsed += size - old
	if ok {
		s.resize(i, size)
	} else {
		i = s.insert(key, size)
	}
	s.admitRAM(i)
	s.ssd.add(s.objs, i)
	s.account(RAM, size, true)
	s.account(HDD, size, true)
	return s.params[RAM].AccessTime(size), nil
}

// insert gives a new key a slot, reusing one Delete released if any.
func (s *TieredStore) insert(key uint64, size int64) int32 {
	o := object{key: key, size: size}
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
		s.objs[i] = o
	} else {
		i = int32(len(s.objs))
		s.objs = append(s.objs, o)
	}
	s.index.put(s.objs, key, i)
	return i
}

// resize changes a stored object's size, charging the difference to each
// cache that holds it; the caches' next add refreshes or evicts it.
func (s *TieredStore) resize(i int32, size int64) {
	for _, c := range [...]*lruCache{&s.ram, &s.ssd} {
		if c.has(s.objs, i) {
			c.used += size - s.objs[i].size
		}
	}
	s.objs[i].size = size
}

func errNotFound(key uint64) error { return fmt.Errorf("%w: key %#x", ErrNotFound, key) }

func errNegativeSize(size int64) error { return fmt.Errorf("storage: negative size %d", size) }

func errFull(size int64) error { return fmt.Errorf("%w: need %d bytes", ErrFull, size) }

// Load writes every key with the given size, in order: it leaves exactly the
// state and returns exactly the error that the same sequence of Write calls
// would, stopping at the first key that does not fit. On an empty LRU store
// it builds that state directly instead of churning the caches: one pass
// fills the slab and the index, sized up front, then each cache threads the
// most recent keys that fit its capacity, and the RAM and HDD write counters
// add up. Otherwise (a store holding objects, or TinyLFU admission, whose
// sketch sees every write) it runs the Writes. A store without objects has
// empty caches and only free slots: Write and Read cache only stored
// objects, and Delete removes a key from every tier.
func (s *TieredStore) Load(keys []uint64, size int64) error {
	if s.index.n > 0 || s.sketch != nil {
		for _, k := range keys {
			if _, err := s.Write(k, size); err != nil {
				return err
			}
		}
		return nil
	}
	if size < 0 && len(keys) > 0 {
		return errNegativeSize(size)
	}
	s.index.reset(len(keys))
	s.objs = make([]object, 0, len(keys))
	s.free = nil
	var err error
	n := 0
	for _, k := range keys {
		var old int64
		_, dup := s.index.get(s.objs, k)
		if dup {
			old = size
		}
		if s.hddUsed-old+size > s.hddCap {
			err = errFull(size)
			break
		}
		s.hddUsed += size - old
		if !dup {
			s.objs = append(s.objs, object{key: k, size: size})
			s.index.put(s.objs, k, int32(len(s.objs)-1))
		}
		n++
	}
	keys = keys[:n]
	s.ram.load(s.objs, &s.index, keys, size)
	s.ssd.load(s.objs, &s.index, keys, size)
	for _, t := range []Tier{RAM, HDD} {
		st := &s.stats[t]
		st.Writes += int64(n)
		st.BytesWrit += int64(n) * size
	}
	return err
}

// Delete removes an object from backing store and caches, and frees its
// slot.
func (s *TieredStore) Delete(key uint64) {
	i, ok := s.index.get(s.objs, key)
	if !ok {
		return
	}
	s.ram.remove(s.objs, i)
	s.ssd.remove(s.objs, i)
	s.hddUsed -= s.objs[i].size
	s.index.del(s.objs, key, i)
	s.free = append(s.free, i)
}

// RawAccess returns the modeled time for a raw transfer of size bytes at a
// tier and accounts it, without touching object bookkeeping. Platforms use
// it for log appends, flushes, and compaction streams.
func (s *TieredStore) RawAccess(t Tier, size int64, write bool) time.Duration {
	s.account(t, size, write)
	return s.params[t].AccessTime(size)
}

func (s *TieredStore) account(t Tier, size int64, write bool) {
	st := &s.stats[t]
	if write {
		st.Writes++
		st.BytesWrit += size
	} else {
		st.Reads++
		st.BytesRead += size
	}
}
