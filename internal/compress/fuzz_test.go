package compress

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// FuzzSnappyRoundTrip drives the production encoder through the reference
// decoder, and the decoder through arbitrary bytes:
//
//   - Decode(AppendEncode(nil, x)) must give back x exactly;
//   - Decode(x) must return a value or an error, never panic, and allocate
//     in proportion to len(x), whatever length x's header declares. The
//     first allocation is capped at 8*len(x)+64 bytes; past that the output
//     only grows by what the body decodes to, and one element of n input
//     bytes decodes to at most 64/3*n (a 3-byte copy of 64 bytes). Append's
//     growth at most doubles that, plus slack for the runtime's rounding.
func FuzzSnappyRoundTrip(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		[]byte("a"),
		[]byte(strings.Repeat("hyperscale data processing ", 40)),
		bytes.Repeat([]byte{0}, 5000),
		{0xff, 0xff, 0xff, 0xff, 0x03}, // declares MaxBlockSize, no body
		{0x80, 0x80, 0x40},             // declares 1 MiB, no body
		{0x40, 0x00, 0x61, 0xfe, 0x01, 0x00},
		{0x05, 0x0c, 'a'},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, x []byte) {
		enc, err := AppendEncode(nil, x)
		if err != nil {
			t.Fatalf("encode %d bytes: %v", len(x), err)
		}
		dec, err := Decode(enc)
		if err != nil || !bytes.Equal(dec, x) {
			t.Fatalf("round trip of %d bytes: got %d bytes, err %v", len(x), len(dec), err)
		}

		if out, err := Decode(x); err != nil && out != nil {
			t.Fatalf("Decode returned %d bytes with error %v", len(out), err)
		}
		// The least of three measurements: another goroutine of the test
		// process may allocate during one of them.
		allocated := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Decode(x)
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		limit := uint64(8*len(x)+64) + 2*uint64(64*len(x)/3) + 4096
		if got := min(allocated(), allocated(), allocated()); got > limit {
			t.Fatalf("Decode of %d bytes allocated %d bytes, limit %d", len(x), got, limit)
		}
	})
}
