package storage

// lruCache is a byte-budgeted LRU cache of string keys with per-entry sizes.
// It is hand-rolled (intrusive doubly-linked list + map) so eviction order
// and memory accounting are fully deterministic.
type lruCache struct {
	capacity int64
	used     int64
	entries  map[string]*lruEntry
	head     *lruEntry // most recently used
	tail     *lruEntry // least recently used
	// spare is the last removed entry, recycled by the next insert so a full
	// cache churns without allocating.
	spare *lruEntry
}

type lruEntry struct {
	key        string
	size       int64
	prev, next *lruEntry
}

func newLRU(capacity int64) *lruCache {
	return &lruCache{capacity: capacity, entries: map[string]*lruEntry{}}
}

// Contains reports whether key is cached and, if so, marks it most recently
// used.
func (c *lruCache) Contains(key string) bool {
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.moveToFront(e)
	return true
}

// Peek reports presence without touching recency.
func (c *lruCache) Peek(key string) bool {
	_, ok := c.entries[key]
	return ok
}

// Add inserts or refreshes key with the given size, evicting LRU entries to
// fit. Entries larger than the whole capacity are not cached.
func (c *lruCache) Add(key string, size int64) {
	if size > c.capacity {
		// Too big to ever fit; also drop a stale smaller entry if present.
		if e, ok := c.entries[key]; ok {
			c.remove(e)
		}
		return
	}
	if e, ok := c.entries[key]; ok {
		c.used += size - e.size
		e.size = size
		c.moveToFront(e)
	} else {
		e := c.spare
		if e == nil {
			e = &lruEntry{}
		}
		c.spare = nil
		e.key, e.size = key, size
		c.entries[key] = e
		c.pushFront(e)
		c.used += size
	}
	for c.used > c.capacity && c.tail != nil {
		c.remove(c.tail)
	}
}

// load leaves an empty cache as Adding each of keys with the given size in
// order would: with equal sizes it holds the most recently added distinct
// keys that fit, most recent first. Its entries are cut from one slab.
func (c *lruCache) load(keys []string, size int64) {
	if size > c.capacity {
		return
	}
	fit := len(keys)
	if size > 0 && c.capacity/size < int64(fit) {
		fit = int(c.capacity / size)
	}
	slab := make([]lruEntry, fit)
	c.entries = make(map[string]*lruEntry, fit)
	for i := len(keys) - 1; i >= 0 && len(c.entries) < fit; i-- {
		if _, dup := c.entries[keys[i]]; dup {
			continue // an earlier Add of a key a later one refreshed
		}
		e := &slab[len(c.entries)]
		e.key, e.size = keys[i], size
		c.entries[e.key] = e
		// Walking backwards, each entry is older than those already placed.
		e.prev = c.tail
		if c.tail != nil {
			c.tail.next = e
		} else {
			c.head = e
		}
		c.tail = e
		c.used += size
	}
}

// Remove deletes key if present.
func (c *lruCache) Remove(key string) {
	if e, ok := c.entries[key]; ok {
		c.remove(e)
	}
}

// Used returns the bytes currently cached.
func (c *lruCache) Used() int64 { return c.used }

// Len returns the number of cached entries.
func (c *lruCache) Len() int { return len(c.entries) }

func (c *lruCache) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruCache) moveToFront(e *lruEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *lruCache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.head == e {
		c.head = e.next
	}
	if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *lruCache) remove(e *lruEntry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.used -= e.size
	c.spare = e
}
