package storage

// nilSlot ends a recency list.
const nilSlot = -1

// object is one stored object in a TieredStore's slab: its key and size,
// and its place in the RAM and SSD caches, in 32 bytes. The slab holds no
// pointers, so the garbage collector never scans it.
type object struct {
	key  uint64
	size int64
	// lru holds the object's recency links, indexed by the cache's tier
	// (RAM or SSD).
	lru [2]link
}

// link threads an object through one cache's recency list. Each field holds
// a neighbour's slot plus one, so nilSlot is stored as 0 and a zero link,
// as a new object has, is one that no list holds. An object is in a list
// when it has a predecessor or is the list's head.
type link struct {
	prev, next int32 // slots toward the head and the tail, plus one
}

// lruCache is a byte-budgeted LRU list threaded through a TieredStore's
// object slab: the header of one tier's recency list, most recently used
// first. It is hand-rolled (intrusive doubly-linked list) so eviction order
// and memory accounting are fully deterministic. A cached object's size is
// its stored size; the store adjusts used when it resizes a cached object.
type lruCache struct {
	tier       Tier // RAM or SSD: which of object.lru this list threads
	capacity   int64
	used       int64
	n          int
	head, tail int32 // most and least recently used slots, or nilSlot
}

func newLRU(t Tier, capacity int64) lruCache {
	return lruCache{tier: t, capacity: capacity, head: nilSlot, tail: nilSlot}
}

func (c *lruCache) has(objs []object, i int32) bool {
	return objs[i].lru[c.tier].prev != 0 || c.head == i
}

// touch reports whether slot i is cached and, if so, marks it most recently
// used.
func (c *lruCache) touch(objs []object, i int32) bool {
	if !c.has(objs, i) {
		return false
	}
	c.moveToFront(objs, i)
	return true
}

// add inserts or refreshes slot i at its size, evicting LRU entries to fit.
// An object larger than the whole capacity is not cached, and dropped if it
// was.
func (c *lruCache) add(objs []object, i int32) {
	if objs[i].size > c.capacity {
		c.remove(objs, i)
		return
	}
	if c.has(objs, i) {
		c.moveToFront(objs, i)
	} else {
		c.pushFront(objs, i)
		c.used += objs[i].size
		c.n++
	}
	for c.used > c.capacity && c.tail != nilSlot {
		c.remove(objs, c.tail)
	}
}

// load threads an empty cache as adding the objects of keys in order would
// leave it, when each of them has the given size: the most recently added
// distinct keys that fit, most recent first. Slot j holds keys[j] unless
// keys repeats one, when index resolves the slot.
func (c *lruCache) load(objs []object, index *slotIndex, keys []uint64, size int64) {
	if size > c.capacity {
		return
	}
	fit := len(objs)
	if size > 0 && c.capacity/size < int64(fit) {
		fit = int(c.capacity / size)
	}
	for j := len(keys) - 1; j >= 0 && c.n < fit; j-- {
		i := int32(j)
		if len(objs) < len(keys) {
			i, _ = index.get(objs, keys[j])
		}
		if c.has(objs, i) {
			continue // an earlier add of a key a later one refreshed
		}
		// Walking backwards, each slot is older than those already placed.
		objs[i].lru[c.tier] = link{prev: c.tail + 1}
		if c.tail != nilSlot {
			objs[c.tail].lru[c.tier].next = i + 1
		} else {
			c.head = i
		}
		c.tail = i
		c.used += size
		c.n++
	}
}

// remove drops slot i from the cache if it is cached.
func (c *lruCache) remove(objs []object, i int32) {
	if !c.has(objs, i) {
		return
	}
	c.unlink(objs, i)
	c.used -= objs[i].size
	c.n--
}

// Used returns the bytes currently cached.
func (c *lruCache) Used() int64 { return c.used }

// Len returns the number of cached objects.
func (c *lruCache) Len() int { return c.n }

func (c *lruCache) pushFront(objs []object, i int32) {
	objs[i].lru[c.tier] = link{next: c.head + 1}
	if c.head != nilSlot {
		objs[c.head].lru[c.tier].prev = i + 1
	}
	c.head = i
	if c.tail == nilSlot {
		c.tail = i
	}
}

func (c *lruCache) moveToFront(objs []object, i int32) {
	if c.head == i {
		return
	}
	c.unlink(objs, i)
	c.pushFront(objs, i)
}

func (c *lruCache) unlink(objs []object, i int32) {
	l := objs[i].lru[c.tier]
	prev, next := l.prev-1, l.next-1
	if prev != nilSlot {
		objs[prev].lru[c.tier].next = l.next
	} else {
		c.head = next
	}
	if next != nilSlot {
		objs[next].lru[c.tier].prev = l.prev
	} else {
		c.tail = prev
	}
	objs[i].lru[c.tier] = link{}
}
