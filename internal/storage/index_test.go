package storage

import (
	"testing"
	"unsafe"
)

// TestObjectIs32Bytes pins the slab entry's size: the "not cached" state
// lives in the links, not in a flag that would pad the object to 40 bytes.
func TestObjectIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(object{}); n != 32 {
		t.Fatalf("object is %d bytes, want 32", n)
	}
}

// fibInv is the multiplicative inverse of fibMul modulo 2^64, by Newton's
// iteration: each step doubles the number of correct low bits.
var fibInv = func() uint64 {
	inv := uint64(fibMul) // correct to 3 bits: an odd number is its own inverse mod 8
	for i := 0; i < 6; i++ {
		inv *= 2 - fibMul*inv
	}
	return inv
}()

// keyAt returns a key whose probe run starts at bucket b of a table of size
// buckets (a power of two); salt tells such keys apart.
func keyAt(size, b int, salt uint64) uint64 {
	shift := uint(64)
	for n := size; n > 1; n >>= 1 {
		shift--
	}
	return (uint64(b)<<shift | salt) * fibInv
}

func TestKeyAtHomesWhereAsked(t *testing.T) {
	var x slotIndex
	x.reset(100)
	for b := 0; b < len(x.table); b += 7 {
		for salt := uint64(0); salt < 4; salt++ {
			if h := x.home(keyAt(len(x.table), b, salt)); h != b {
				t.Fatalf("key for bucket %d, salt %d homes at %d", b, salt, h)
			}
		}
	}
}

// FuzzSlotIndex runs put/del/get sequences against a map reference, over a
// slab that reuses freed slots the way TieredStore does. Each operation is
// three bytes: code, a, b. code%3 picks put, del or get; for put and get,
// (code>>2)%4 picks the key's shape: a small integer, a multiple of 2^32, a
// g<<32|row key, or a key whose probe run starts in the table's last four
// buckets, so runs collide and wrap past the table end. del removes the
// (a|b<<8)-th live key. After every operation the index must hold exactly
// the reference's keys at their slots, so a delete that breaks a probe run
// fails on the first key after it.
func FuzzSlotIndex(f *testing.F) {
	ops := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	repeat := func(n int, op func(i int) []byte) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			out = append(out, op(i)...)
		}
		return out
	}
	// Colliding keys at the table end, growing the table, then deleting
	// every other one from the front of the run.
	f.Add(ops(
		repeat(40, func(i int) []byte { return []byte{3 << 2, byte(i), 0} }),
		repeat(20, func(i int) []byte { return []byte{1, byte(i), 0} }),
		repeat(40, func(i int) []byte { return []byte{2 | 3<<2, byte(i), 1} }),
	))
	// Multiples of 2^32 and g<<32|row keys, interleaved with deletes and
	// misses.
	f.Add(ops(
		repeat(30, func(i int) []byte { return []byte{1 << 2, byte(i), 0} }),
		repeat(30, func(i int) []byte { return []byte{2 << 2, byte(i), byte(i * 7)} }),
		repeat(25, func(i int) []byte { return []byte{1, byte(i * 3), 0} }),
		repeat(30, func(i int) []byte { return []byte{2 | 1<<2, byte(i), 0} }),
		repeat(30, func(i int) []byte { return []byte{2 << 2, byte(i + 1), byte(i * 5)} }),
	))
	// Fill, empty completely, refill the same keys.
	f.Add(ops(
		repeat(12, func(i int) []byte { return []byte{0, byte(i), 0} }),
		repeat(12, func(i int) []byte { return []byte{1, 0, 0} }),
		repeat(12, func(i int) []byte { return []byte{0, byte(i), 0} }),
	))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			x    slotIndex
			objs []object
			free []int32
			ref  = map[uint64]int32{}
			live []uint64
		)
		keyFor := func(kind, a, b byte) uint64 {
			switch kind % 4 {
			case 0:
				return uint64(a)
			case 1:
				return uint64(a) << 32
			case 2:
				return uint64(a%8)<<32 | uint64(b)
			default:
				size := len(x.table)
				if size == 0 {
					size = minBuckets
				}
				return keyAt(size, size-1-int(a%4), uint64(a)>>2|uint64(b)<<6)
			}
		}
		for len(data) >= 3 {
			code, a, b := data[0], data[1], data[2]
			data = data[3:]
			switch code % 3 {
			case 0: // put
				key := keyFor(code>>2, a, b)
				if _, ok := ref[key]; ok {
					break
				}
				var slot int32
				if n := len(free); n > 0 {
					slot = free[n-1]
					free = free[:n-1]
					objs[slot] = object{key: key}
				} else {
					slot = int32(len(objs))
					objs = append(objs, object{key: key})
				}
				x.put(objs, key, slot)
				ref[key] = slot
				live = append(live, key)
			case 1: // del
				if len(live) == 0 {
					break
				}
				j := (int(a) | int(b)<<8) % len(live)
				key := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				x.del(objs, key, ref[key])
				free = append(free, ref[key])
				delete(ref, key)
				if _, ok := x.get(objs, key); ok {
					t.Fatalf("deleted key %#x still found", key)
				}
			case 2: // get
				key := keyFor(code>>2, a, b)
				slot, ok := x.get(objs, key)
				want, wantOK := ref[key]
				if ok != wantOK || (ok && slot != want) {
					t.Fatalf("get(%#x) = %d, %v; want %d, %v", key, slot, ok, want, wantOK)
				}
			}
			if x.n != len(ref) || x.n*4 > len(x.table)*3 {
				t.Fatalf("index holds %d keys in %d buckets, reference %d", x.n, len(x.table), len(ref))
			}
			if got := len(x.slots()); got != x.n {
				t.Fatalf("%d occupied buckets for %d keys", got, x.n)
			}
			for key, want := range ref {
				if slot, ok := x.get(objs, key); !ok || slot != want {
					t.Fatalf("get(%#x) = %d, %v; want %d", key, slot, ok, want)
				}
			}
		}
	})
}
