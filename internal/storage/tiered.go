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
type TieredStore struct {
	params  map[Tier]TierParams
	ram     *lruCache
	ssd     *lruCache
	hddCap  int64
	hddUsed int64
	objects map[string]int64 // backing-store object sizes
	stats   map[Tier]*TierStats
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
		params:  params,
		ram:     newLRU(caps[RAM]),
		ssd:     newLRU(caps[SSD]),
		hddCap:  caps[HDD],
		objects: map[string]int64{},
		stats:   map[Tier]*TierStats{RAM: {}, SSD: {}, HDD: {}},
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

// admitRAM inserts a key into the RAM cache subject to the policy.
func (s *TieredStore) admitRAM(key string, size int64) {
	if s.sketch != nil {
		s.sketch.Touch(key)
		if !s.ram.Peek(key) && s.ram.Used()+size > s.ram.capacity && size <= s.ram.capacity {
			if v := s.ram.tail; v != nil && s.sketch.Estimate(key) < s.sketch.Estimate(v.key) {
				return // colder than the victim it would displace
			}
		}
	}
	s.ram.Add(key, size)
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

// Used returns the bytes resident at a tier.
func (s *TieredStore) Used(t Tier) int64 {
	switch t {
	case RAM:
		return s.ram.Used()
	case SSD:
		return s.ssd.Used()
	default:
		return s.hddUsed
	}
}

// Stats returns the access statistics for a tier.
func (s *TieredStore) Stats(t Tier) TierStats { return *s.stats[t] }

// Has reports whether the object exists in the backing store.
func (s *TieredStore) Has(key string) bool {
	_, ok := s.objects[key]
	return ok
}

// Size returns the object's size, or an error if it does not exist.
func (s *TieredStore) Size(key string) (int64, error) {
	sz, ok := s.objects[key]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return sz, nil
}

// Read fetches an object, returning the modeled access time and the tier
// that served it. Lower-tier hits promote the object into the caches above.
func (s *TieredStore) Read(key string) (time.Duration, Tier, error) {
	size, ok := s.objects[key]
	if !ok {
		return 0, HDD, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if s.sketch != nil {
		s.sketch.Touch(key)
	}
	switch {
	case s.ram.Contains(key):
		s.account(RAM, size, false)
		return s.params[RAM].AccessTime(size), RAM, nil
	case s.ssd.Contains(key):
		s.account(SSD, size, false)
		s.admitRAM(key, size)
		return s.params[SSD].AccessTime(size), SSD, nil
	default:
		s.account(HDD, size, false)
		s.ssd.Add(key, size)
		s.admitRAM(key, size)
		return s.params[HDD].AccessTime(size), HDD, nil
	}
}

// Write stores an object: it is accounted against HDD backing immediately
// (durability is the platform's concern) and lands in the RAM write buffer
// and SSD cache. The returned duration is the RAM buffer access; flush and
// log costs are modeled by callers via RawAccess.
func (s *TieredStore) Write(key string, size int64) (time.Duration, error) {
	if size < 0 {
		return 0, errNegativeSize(size)
	}
	old := s.objects[key]
	if s.hddUsed-old+size > s.hddCap {
		return 0, errFull(size)
	}
	s.hddUsed += size - old
	s.objects[key] = size
	s.admitRAM(key, size)
	s.ssd.Add(key, size)
	s.account(RAM, size, true)
	s.account(HDD, size, true)
	return s.params[RAM].AccessTime(size), nil
}

func errNegativeSize(size int64) error { return fmt.Errorf("storage: negative size %d", size) }

func errFull(size int64) error { return fmt.Errorf("%w: need %d bytes", ErrFull, size) }

// Load writes every key with the given size, in order: it leaves exactly the
// state and returns exactly the error that the same sequence of Write calls
// would, stopping at the first key that does not fit. On an empty LRU store
// it builds that state directly instead of churning the caches: the objects
// map sized up front, each cache holding the most recent keys that fit its
// capacity, and the RAM and HDD write counters. Otherwise (a store holding
// objects, or TinyLFU admission, whose sketch sees every write) it runs the
// Writes. A store without objects has empty caches: Write and Read cache
// only stored objects, and Delete removes a key from every tier.
func (s *TieredStore) Load(keys []string, size int64) error {
	if len(s.objects) > 0 || s.sketch != nil {
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
	s.objects = make(map[string]int64, len(keys))
	var err error
	n := 0
	for _, k := range keys {
		old := s.objects[k]
		if s.hddUsed-old+size > s.hddCap {
			err = errFull(size)
			break
		}
		s.hddUsed += size - old
		s.objects[k] = size
		n++
	}
	keys = keys[:n]
	s.ram.load(keys, size)
	s.ssd.load(keys, size)
	for _, t := range []Tier{RAM, HDD} {
		st := s.stats[t]
		st.Writes += int64(n)
		st.BytesWrit += int64(n) * size
	}
	return err
}

// Delete removes an object from backing store and caches.
func (s *TieredStore) Delete(key string) {
	if size, ok := s.objects[key]; ok {
		s.hddUsed -= size
		delete(s.objects, key)
	}
	s.ram.Remove(key)
	s.ssd.Remove(key)
}

// RawAccess returns the modeled time for a raw transfer of size bytes at a
// tier and accounts it, without touching object bookkeeping. Platforms use
// it for log appends, flushes, and compaction streams.
func (s *TieredStore) RawAccess(t Tier, size int64, write bool) time.Duration {
	s.account(t, size, write)
	return s.params[t].AccessTime(size)
}

func (s *TieredStore) account(t Tier, size int64, write bool) {
	st := s.stats[t]
	if write {
		st.Writes++
		st.BytesWrit += size
	} else {
		st.Reads++
		st.BytesRead += size
	}
}
