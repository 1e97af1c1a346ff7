package compress

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"hyperprof/internal/stats"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc, err := Encode(src)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("roundtrip mismatch: %d in, %d out", len(src), len(dec))
	}
	return enc
}

func TestRoundTripBasics(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abc"),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
		[]byte(strings.Repeat("abcd", 100)),
		[]byte("the quick brown fox jumps over the lazy dog, the quick brown fox"),
		bytes.Repeat([]byte{0}, 10000),
	}
	for i, src := range cases {
		roundTrip(t, src)
		_ = i
	}
}

func TestCompressesRepetitiveData(t *testing.T) {
	src := []byte(strings.Repeat("hyperscale data processing ", 200))
	enc := roundTrip(t, src)
	if len(enc) >= len(src)/4 {
		t.Fatalf("repetitive data: %d -> %d bytes (ratio %.1f), want >4x",
			len(src), len(enc), float64(len(src))/float64(len(enc)))
	}
}

func TestIncompressibleDataBounded(t *testing.T) {
	rng := stats.NewRNG(7)
	src := make([]byte, 64<<10)
	for i := range src {
		src[i] = byte(rng.Uint64())
	}
	enc := roundTrip(t, src)
	if len(enc) > MaxEncodedLen(len(src)) {
		t.Fatalf("encoded %d bytes exceeds MaxEncodedLen %d", len(enc), MaxEncodedLen(len(src)))
	}
	// Random data should expand only slightly.
	if len(enc) > len(src)+len(src)/50+16 {
		t.Fatalf("random data expanded too much: %d -> %d", len(src), len(enc))
	}
}

func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(src []byte) bool {
		enc, err := Encode(src)
		if err != nil {
			return false
		}
		dec, err := Decode(enc)
		return err == nil && bytes.Equal(dec, src)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// structuredCorpus returns inputs with long matches and overlaps: random
// runs, single-byte repeats (overlapping copies) and repeats of earlier
// windows.
func structuredCorpus() [][]byte {
	rng := stats.NewRNG(11)
	var corpus [][]byte
	for trial := 0; trial < 200; trial++ {
		var src []byte
		for len(src) < 5000 {
			switch rng.Intn(3) {
			case 0: // random run
				n := 1 + rng.Intn(50)
				for i := 0; i < n; i++ {
					src = append(src, byte(rng.Uint64()))
				}
			case 1: // repeat of a single byte (overlapping copies)
				n := 1 + rng.Intn(300)
				b := byte(rng.Uint64())
				for i := 0; i < n; i++ {
					src = append(src, b)
				}
			case 2: // repeat an earlier window
				if len(src) > 8 {
					off := 1 + rng.Intn(len(src)-4)
					n := 1 + rng.Intn(200)
					for i := 0; i < n; i++ {
						src = append(src, src[len(src)-off])
					}
				}
			}
		}
		corpus = append(corpus, src)
	}
	return corpus
}

func TestRoundTripStructuredProperty(t *testing.T) {
	for _, src := range structuredCorpus() {
		roundTrip(t, src)
	}
}

// appendMatchesEncode reports whether AppendEncode onto prefix yields prefix
// followed by exactly Encode(src), leaving prefix's bytes alone.
func appendMatchesEncode(prefix, src []byte) bool {
	want, err := Encode(src)
	if err != nil {
		return false
	}
	keep := append([]byte(nil), prefix...)
	got, err := AppendEncode(prefix, src)
	return err == nil && bytes.Equal(got[:len(keep)], keep) && bytes.Equal(got[len(keep):], want)
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	if err := quick.Check(appendMatchesEncode, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	prefix := []byte("existing block bytes")
	for i, src := range structuredCorpus() {
		if !appendMatchesEncode(nil, src) || !appendMatchesEncode(prefix[:i%len(prefix)], src) {
			t.Fatalf("structured input %d: AppendEncode differs from Encode", i)
		}
	}
	// A dst with spare capacity is written in place, not reallocated.
	buf := make([]byte, 3, 3+MaxEncodedLen(len(prefix)))
	got, _ := AppendEncode(buf, prefix)
	if &got[0] != &buf[0] {
		t.Fatal("AppendEncode reallocated a dst with enough capacity")
	}
}

func TestAppendEncodeAllocs(t *testing.T) {
	src := structuredCorpus()[0]
	dst := make([]byte, 0, MaxEncodedLen(len(src)))
	if n := testing.AllocsPerRun(20, func() { dst, _ = AppendEncode(dst[:0], src) }); n != 0 {
		t.Fatalf("AppendEncode into a large-enough dst allocates %v objects, want 0", n)
	}
}

func TestDecodedLen(t *testing.T) {
	enc, _ := Encode([]byte("hello world hello world"))
	n, _, err := readUvarint(enc)
	if err != nil || n != 23 {
		t.Fatalf("decoded len = %d, %v", n, err)
	}
	if _, _, err := readUvarint(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatal("empty header accepted")
	}
}

func TestDecodeHandCraftedVectors(t *testing.T) {
	// Per the Snappy format description.
	cases := []struct {
		name string
		enc  []byte
		want string
	}{
		{
			name: "pure literal",
			enc:  []byte{5, 4<<2 | tagLiteral, 'h', 'e', 'l', 'l', 'o'},
			want: "hello",
		},
		{
			name: "literal then copy1 (RLE)",
			// "ab" then copy offset 2 length 6 -> "abababab".
			enc:  []byte{8, 1<<2 | tagLiteral, 'a', 'b', byte(0)<<5 | byte(6-4)<<2 | tagCopy1, 2},
			want: "abababab",
		},
		{
			name: "copy2",
			enc:  []byte{8, 3<<2 | tagLiteral, 'w', 'x', 'y', 'z', byte(4-1)<<2 | tagCopy2, 4, 0},
			want: "wxyzwxyz",
		},
	}
	for _, c := range cases {
		got, err := Decode(c.enc)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if string(got) != c.want {
			t.Errorf("%s: got %q want %q", c.name, got, c.want)
		}
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	valid, _ := Encode([]byte(strings.Repeat("corrupt me please ", 50)))
	cases := [][]byte{
		nil,
		{0x80},             // unterminated varint
		{5},                // declared 5 bytes, no body
		{5, 4<<2 | 0, 'x'}, // truncated literal
		{4, byte(0)<<5 | byte(0)<<2 | tagCopy1, 10},          // copy offset beyond output
		{2, byte(1-1)<<2 | tagCopy2, 0, 0},                   // zero offset
		valid[:len(valid)/2],                                 // truncated block
		append(append([]byte{}, valid...), 0x00, 0x00, 0x00), // trailing garbage inflates output
	}
	for i, enc := range cases {
		if _, err := Decode(enc); err == nil {
			t.Errorf("case %d: corrupt input decoded successfully", i)
		}
	}
}

func TestDecodeNeverPanicsOnRandomInput(t *testing.T) {
	rng := stats.NewRNG(13)
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(200)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		// Must return (possibly an error) without panicking.
		Decode(b)
	}
}

func TestEncodeTooLarge(t *testing.T) {
	// Do not allocate a real >1GiB slice; validate the check with a crafted
	// header through Decode instead, and Encode's limit via length math.
	if MaxEncodedLen(100) < 100 {
		t.Fatal("MaxEncodedLen too small")
	}
	hdr := appendUvarint(nil, uint64(MaxBlockSize)+1)
	if _, err := Decode(hdr); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized header err = %v", err)
	}
}

func TestProtobufCorpusCompression(t *testing.T) {
	// The corpus the SoC validation serializes should compress (its strings
	// are low-entropy lowercase).
	rng := stats.NewRNG(17)
	src := make([]byte, 0, 100<<10)
	for len(src) < 64<<10 {
		word := make([]byte, 3+rng.Intn(8))
		for i := range word {
			word[i] = byte('a' + rng.Intn(26))
		}
		for r := 0; r < 1+rng.Intn(5); r++ {
			src = append(src, word...)
		}
	}
	enc := roundTrip(t, src)
	if float64(len(enc)) > 0.9*float64(len(src)) {
		t.Fatalf("low-entropy text did not compress: %d -> %d", len(src), len(enc))
	}
}
