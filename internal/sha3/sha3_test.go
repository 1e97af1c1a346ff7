package sha3

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

// Reference digests generated with an independent implementation
// (CPython hashlib, which wraps the XKCP reference code).
var sha3_256Vectors = []struct {
	in  string
	out string
}{
	{"", "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"},
	{"abc", "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"},
	{"The quick brown fox jumps over the lazy dog", "69070dda01975c8c120c3aada1b282394e7f032fa9cf32f4cb2259a0897dfc04"},
	// rate-1 bytes, exactly rate bytes, rate+1 bytes: padding edge cases.
	{strings.Repeat("a", 135), "8094bb53c44cfb1e67b7c30447f9a1c33696d2463ecc1d9c92538913392843c9"},
	{strings.Repeat("a", 136), "3fc5559f14db8e453a0a3091edbd2bc25e11528d81c66fa570a4efdcc2695ee1"},
	{strings.Repeat("a", 137), "f8d6846cedd2ccfadf15c5879ef95af724d799eed7391fb1c91f95344e738614"},
}

func TestSum256Vectors(t *testing.T) {
	for _, v := range sha3_256Vectors {
		got := Sum256([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.out {
			t.Errorf("Sum256(%.20q... len %d) = %x, want %s", v.in, len(v.in), got, v.out)
		}
	}
}

func TestSum256ByteRange(t *testing.T) {
	in := make([]byte, 256)
	for i := range in {
		in[i] = byte(i)
	}
	got := Sum256(in)
	want := "9b04c091da96b997afb8f2585d608aebe9c4a904f7d52c8f28c7e4d2dd9fba5f"
	if hex.EncodeToString(got[:]) != want {
		t.Fatalf("Sum256(0..255) = %x", got)
	}
}

func TestSum256Million(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	got := Sum256(bytes.Repeat([]byte("a"), 1000000))
	want := "5c8875ae474a3634ba4fd55ec85bffd661f32aca75c6d699d0cdcb6c115891c1"
	if hex.EncodeToString(got[:]) != want {
		t.Fatalf("million-a digest = %x", got)
	}
}

func TestIncrementalWrite(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 100)
	whole := Sum256(data)
	h := New256()
	for i := 0; i < len(data); i += 7 {
		end := i + 7
		if end > len(data) {
			end = len(data)
		}
		h.Write(data[i:end])
	}
	if !bytes.Equal(h.Sum(nil), whole[:]) {
		t.Fatal("chunked write digest differs")
	}
}

func TestSumDoesNotFinalize(t *testing.T) {
	h := New256()
	h.Write([]byte("ab"))
	first := h.Sum(nil)
	second := h.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatal("Sum not idempotent")
	}
	h.Write([]byte("c"))
	want := Sum256([]byte("abc"))
	if !bytes.Equal(h.Sum(nil), want[:]) {
		t.Fatal("Write after Sum gave wrong digest")
	}
}

func TestChunkingInvariance(t *testing.T) {
	// Property: digest is independent of how input is split across writes.
	if err := quick.Check(func(data []byte, split uint8) bool {
		h1 := New256()
		h1.Write(data)
		cut := 0
		if len(data) > 0 {
			cut = int(split) % (len(data) + 1)
		}
		h2 := New256()
		h2.Write(data[:cut])
		h2.Write(data[cut:])
		return bytes.Equal(h1.Sum(nil), h2.Sum(nil))
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctInputsDistinctDigests(t *testing.T) {
	seen := map[[32]byte]string{}
	for _, v := range sha3_256Vectors {
		d := Sum256([]byte(v.in))
		if prev, dup := seen[d]; dup {
			t.Fatalf("collision between %q and %q", prev, v.in)
		}
		seen[d] = v.in
	}
}
