package storage

// slotIndex maps each stored key to its slot in a TieredStore's object slab.
// It is an open-addressing table of slot+1 (0 marks an empty bucket) with
// Fibonacci hashing and linear probing. It stores no keys: a probe compares
// the key the slab holds at the bucket's slot, so each key lives once, in
// the slab. The table stays at most 3/4 full, doubling when an insert would
// pass that, and a delete shifts the rest of its probe run back instead of
// leaving a tombstone. Callers pass the slab to every call; the slots it
// holds must keep the keys they were put with until they are deleted.
type slotIndex struct {
	table []int32 // slot+1 per bucket, 0 if empty; a power of two long
	shift uint    // 64 - log2(len(table))
	n     int     // keys held
}

// fibMul is 2^64 divided by the golden ratio: multiplying by it scatters
// consecutive keys, and the key shapes callers use (g<<32 | row, id<<32 |
// chunk), across the high bits the table takes its bucket from.
const fibMul = 0x9E3779B97F4A7C15

// minBuckets is the smallest table a non-empty index allocates.
const minBuckets = 8

// reset empties the index and sizes its table for n keys without growing.
func (x *slotIndex) reset(n int) {
	size := minBuckets
	for size*3 < n*4 {
		size *= 2
	}
	x.alloc(size)
	x.n = 0
}

// alloc gives the index an empty table of size buckets.
func (x *slotIndex) alloc(size int) {
	x.table = make([]int32, size)
	x.shift = 64
	for b := size; b > 1; b >>= 1 {
		x.shift--
	}
}

// home is the bucket a key's probe run starts at.
func (x *slotIndex) home(key uint64) int { return int(key * fibMul >> x.shift) }

// get returns the slot holding key.
func (x *slotIndex) get(objs []object, key uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := len(x.table) - 1
	for b := x.home(key); ; b = (b + 1) & mask {
		s := x.table[b]
		if s == 0 {
			return 0, false
		}
		if objs[s-1].key == key {
			return s - 1, true
		}
	}
}

// put records that slot holds key, which the index must not hold yet. The
// slab must already hold key at slot.
func (x *slotIndex) put(objs []object, key uint64, slot int32) {
	if (x.n+1)*4 > len(x.table)*3 {
		x.grow(objs)
	}
	x.place(key, slot)
	x.n++
}

// place writes slot into the first empty bucket of key's probe run.
func (x *slotIndex) place(key uint64, slot int32) {
	mask := len(x.table) - 1
	b := x.home(key)
	for x.table[b] != 0 {
		b = (b + 1) & mask
	}
	x.table[b] = slot + 1
}

// grow doubles the table (or allocates the first one) and re-places every
// slot it held.
func (x *slotIndex) grow(objs []object) {
	old := x.table
	x.alloc(max(2*len(old), minBuckets))
	for _, s := range old {
		if s != 0 {
			x.place(objs[s-1].key, s-1)
		}
	}
}

// del removes key, which slot holds. Each later entry of the probe run
// whose home bucket does not lie between the freed bucket and its own moves
// back into the gap, so every key the run held stays reachable from its
// home without tombstones.
func (x *slotIndex) del(objs []object, key uint64, slot int32) {
	mask := len(x.table) - 1
	i := x.home(key)
	for x.table[i] != slot+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.table[j] != 0; j = (j + 1) & mask {
		s := x.table[j]
		// The entry at j may fill the gap at i unless its home lies
		// cyclically in (i, j]: the distance from its home to j is at
		// least the distance from i to j.
		if (j-x.home(objs[s-1].key))&mask >= (j-i)&mask {
			x.table[i] = s
			i = j
		}
	}
	x.table[i] = 0
	x.n--
}
