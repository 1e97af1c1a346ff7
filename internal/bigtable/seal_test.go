package bigtable

import (
	"bytes"
	"testing"

	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
)

// TestBaseSSTableSizesGolden pins the on-DFS and logical sizes of the
// DefaultConfig base SSTables. They come from the real codec, so any encoder
// or seal change that would shift DFS file sizes — and with them every IO
// timing downstream — fails here first.
func TestBaseSSTableSizesGolden(t *testing.T) {
	db, err := New(platform.NewEnv(1, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{ // {bytes, rawBytes} per tablet
		{3090405, 3094890},
		{3090427, 3094890},
		{3090439, 3094890},
		{3090469, 3094890},
		{3090477, 3094890},
		{3090522, 3094890},
		{3090481, 3094890},
		{3090453, 3094890},
	}
	if len(db.tablets) != len(want) {
		t.Fatalf("%d tablets, want %d", len(db.tablets), len(want))
	}
	for i, tab := range db.tablets {
		base := tab.ssts[len(tab.ssts)-1]
		if base.bytes != want[i][0] || base.rawBytes != want[i][1] {
			t.Errorf("tablet %d base sstable: bytes=%d rawBytes=%d, want %d %d",
				i, base.bytes, base.rawBytes, want[i][0], want[i][1])
		}
	}
}

// testTable returns an unsealed table of rows 0..rows-1 without a base,
// and the same rows keyed by their tablet-0 keys.
func testTable(rows, valueBytes int) (*sstable, map[string][]byte) {
	s := &sstable{data: map[int][]byte{}}
	keyed := map[string][]byte{}
	for i := 0; i < rows; i++ {
		s.data[i] = bytes.Repeat([]byte{byte(i)}, valueBytes)
		keyed[rowKey(0, i)] = s.data[i]
	}
	return s, keyed
}

// TestSealScratchReuseIsInvisible seals a small table after a large one on
// the same DB and checks the sizes match a seal on a fresh DB and the
// reference seal: leftover scratch bytes must never reach a table's sizes.
func TestSealScratchReuseIsInvisible(t *testing.T) {
	_, fresh := newDB(t, 1)
	want, keyed := testTable(7, 33)
	fresh.seal(want, fresh.baseIndexFor(0))

	_, reused := newDB(t, 1)
	large, _ := testTable(500, 1024)
	reused.seal(large, reused.baseIndexFor(0))
	got, _ := testTable(7, 33)
	reused.seal(got, reused.baseIndexFor(0))
	if got.bytes != want.bytes || got.rawBytes != want.rawBytes {
		t.Fatalf("after a large seal: bytes=%d rawBytes=%d, fresh DB gives %d %d",
			got.bytes, got.rawBytes, want.bytes, want.rawBytes)
	}
	ref := refSeal(t, keyed)
	if !bytes.Equal(reused.sealRaw, ref.raw) {
		t.Fatal("raw block differs from the reference seal's")
	}
	checkSealed(t, got, ref, 0, 1, 7)
	for k := range keyed {
		if !got.filter.MayContainBytes([]byte(k)) {
			t.Fatalf("filter misses %q", k)
		}
	}
}

// TestSealMatchesStringOrder seals overlays that mix base rows with rows
// outside [0, RowsPerTablet), on a base and without one, and checks each
// against the reference seal: the raw block byte for byte, the sizes, the
// key count and the Bloom answers.
func TestSealMatchesStringOrder(t *testing.T) {
	_, db := newDB(t, 1)
	rows := db.cfg.RowsPerTablet
	for _, tb := range []int{0, 3} {
		idx := db.baseIndexFor(tb)
		for _, overlay := range [][]int{
			nil,
			{0, 1, 9, 10, 99, 100, rows - 1},
			{-12, -1, 5, rows, rows + 7, 10 * rows, 123456789},
			{-1000, -3, 4, 40, rows * 3},
		} {
			for _, based := range []bool{false, true} {
				s := &sstable{data: map[int][]byte{}}
				keyed := map[string][]byte{}
				if based {
					s.base = idx
					for i := 0; i < rows; i++ {
						keyed[rowKey(tb, i)] = bootstrapValue(tb, i, int(db.cfg.ValueBytes))
					}
				}
				for j, r := range overlay {
					s.data[r] = bytes.Repeat([]byte{byte(j + 1)}, 1+j*37%200)
					keyed[rowKey(tb, r)] = s.data[r]
				}
				db.seal(s, idx)
				ref := refSeal(t, keyed)
				if !bytes.Equal(db.sealRaw, ref.raw) {
					t.Fatalf("tablet %d based=%v overlay %v: raw block differs from the reference seal's", tb, based, overlay)
				}
				checkSealed(t, s, ref, tb, tb+1, rows)
			}
		}
	}
}

// TestSealAllocs pins a warmed seal to its Bloom filter (struct and bit
// array) and its sorted row slice: the raw and encoded blocks come from
// the DB's scratch buffers.
func TestSealAllocs(t *testing.T) {
	_, db := newDB(t, 1)
	s, _ := testTable(200, 512)
	idx := db.baseIndexFor(0)
	db.seal(s, idx)
	if n := testing.AllocsPerRun(20, func() { db.seal(s, idx) }); n != 3 {
		t.Fatalf("warmed seal allocates %v objects, want 3", n)
	}
}

// TestVirtualRowsDoNotAlias checks that base rows are virtual: every row
// Get returns holds its own bootstrap bytes, and appending to or writing
// into a returned row changes no other row and no other DB.
func TestVirtualRowsDoNotAlias(t *testing.T) {
	envA, a := newDB(t, 1)
	envB, b := newDB(t, 1)
	n := int(a.cfg.ValueBytes)
	get := func(env *platform.Env, db *DB, tab, row int) []byte {
		t.Helper()
		var v []byte
		var err error
		env.K.Go("client", func(p *sim.Proc) { v, err = db.Get(p, nil, tab, row) })
		env.K.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, i := range []int{0, 1, a.cfg.RowsPerTablet - 1} {
		if got := get(envA, a, 1, i); !bytes.Equal(got, bootstrapValue(1, i, n)) {
			t.Fatalf("row %d differs from its bootstrap value", i)
		}
	}
	row0 := get(envA, a, 1, 0)
	_ = append(row0[:1], 0xff)
	row0[n-1] ^= 0xff
	for _, c := range []struct {
		env *platform.Env
		db  *DB
		row int
	}{{envA, a, 0}, {envA, a, 1}, {envB, b, 0}} {
		if got := get(c.env, c.db, 1, c.row); !bytes.Equal(got, bootstrapValue(1, c.row, n)) {
			t.Fatalf("writing into a returned row 0 changed row %d (first byte %d)", c.row, got[0])
		}
	}
}

// TestFillBootstrapMatchesOneStepLCG checks the eight-lane bootstrap fill
// against stepping the LCG one state at a time, across lengths around the
// lane width.
func TestFillBootstrapMatchesOneStepLCG(t *testing.T) {
	for _, n := range []int{0, 1, 2, 8, 9, 10, 16, 17, 23, 1023, 1024, 1025} {
		for _, row := range []int{0, 7, 2999} {
			want := make([]byte, n)
			if n > 0 {
				want[0] = byte(uint64(3)*11 + uint64(row)*17)
				x := uint64(3)*2654435761 + uint64(row)*40503 + 12345
				for j := 1; j < n; j++ {
					x = x*6364136223846793005 + 1442695040888963407
					want[j] = byte(x >> 33)
				}
			}
			if got := bootstrapValue(3, row, n); !bytes.Equal(got, want) {
				t.Fatalf("%d bytes of row %d differ from the one-step LCG", n, row)
			}
		}
	}
}
