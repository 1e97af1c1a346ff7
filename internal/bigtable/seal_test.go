package bigtable

import (
	"bytes"
	"testing"

	"hyperprof/internal/platform"
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

func testTable(rows, valueBytes int) *sstable {
	s := &sstable{data: map[string][]byte{}}
	for i := 0; i < rows; i++ {
		s.data[rowKey(0, i)] = bytes.Repeat([]byte{byte(i)}, valueBytes)
	}
	return s
}

// TestSealScratchReuseIsInvisible seals a small table after a large one on
// the same DB and checks the sizes match a seal on a fresh DB: leftover
// scratch bytes must never reach a table's sizes.
func TestSealScratchReuseIsInvisible(t *testing.T) {
	_, fresh := newDB(t, 1)
	want := testTable(7, 33)
	fresh.seal(want)

	_, reused := newDB(t, 1)
	reused.seal(testTable(500, 1024))
	got := testTable(7, 33)
	reused.seal(got)
	if got.bytes != want.bytes || got.rawBytes != want.rawBytes {
		t.Fatalf("after a large seal: bytes=%d rawBytes=%d, fresh DB gives %d %d",
			got.bytes, got.rawBytes, want.bytes, want.rawBytes)
	}
	for k := range got.data {
		if !got.filter.MayContain(k) {
			t.Fatalf("filter misses %q", k)
		}
	}
}

// TestSealAllocs pins a warmed seal to its Bloom filter (struct and bit
// array) and its sorted key slice: the raw and encoded blocks come from the
// DB's scratch buffers.
func TestSealAllocs(t *testing.T) {
	_, db := newDB(t, 1)
	s := testTable(200, 512)
	db.seal(s)
	if n := testing.AllocsPerRun(20, func() { db.seal(s) }); n != 3 {
		t.Fatalf("warmed seal allocates %v objects, want 3", n)
	}
}

// TestBootstrapRowsDoNotAlias checks the per-tablet bootstrap slab: every
// row holds its own bootstrap bytes, and appending to one row must not
// overwrite its neighbour in the slab.
func TestBootstrapRowsDoNotAlias(t *testing.T) {
	_, db := newDB(t, 1)
	n := int(db.cfg.ValueBytes)
	base := db.tablets[1].ssts[0]
	for _, i := range []int{0, 1, db.cfg.RowsPerTablet - 1} {
		if got := base.data[rowKey(1, i)]; !bytes.Equal(got, bootstrapValue(1, i, n)) {
			t.Fatalf("row %d differs from its bootstrap value", i)
		}
	}
	row0 := base.data[rowKey(1, 0)]
	if cap(row0) != n {
		t.Fatalf("bootstrap row cap %d, want %d", cap(row0), n)
	}
	_ = append(row0, 0xff)
	if got := base.data[rowKey(1, 1)]; !bytes.Equal(got, bootstrapValue(1, 1, n)) {
		t.Fatalf("append to row 0 clobbered row 1 (first byte %d)", got[0])
	}
}
