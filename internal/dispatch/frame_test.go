package dispatch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := request{ID: 7, Kind: "safety/arm", Body: []byte(`{"seed":3}`)}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out request
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Kind != in.Kind || string(out.Body) != string(in.Body) {
		t.Fatalf("round trip mangled frame: %+v -> %+v", in, out)
	}
}

func TestFrameRejectsAbsurdLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var out request
	err := readFrame(bytes.NewReader(hdr[:]), &out)
	if err == nil || !strings.Contains(err.Error(), "malformed frame length") {
		t.Fatalf("want malformed-length error, got %v", err)
	}
}

func TestFrameRejectsTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString(`{"id":1`) // far fewer than 100 bytes, then EOF
	var out request
	err := readFrame(&buf, &out)
	if err == nil || !strings.Contains(err.Error(), "truncated frame") {
		t.Fatalf("want truncated-frame error, got %v", err)
	}
}

func TestFrameRejectsGarbagePayload(t *testing.T) {
	var buf bytes.Buffer
	payload := "not json at all, definitely"
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.WriteString(payload)
	var out request
	err := readFrame(&buf, &out)
	if err == nil || !strings.Contains(err.Error(), "malformed frame payload") {
		t.Fatalf("want malformed-payload error, got %v", err)
	}
}

func TestServeAnswersUntilEOF(t *testing.T) {
	var in, out bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := writeFrame(&in, request{ID: i, Kind: "echo", Body: []byte(`"x"`)}); err != nil {
			t.Fatal(err)
		}
	}
	echo := Handler(func(kind string, body json.RawMessage) (json.RawMessage, error) { return body, nil })
	if err := Serve(&in, &out, echo); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var resp response
		if err := readFrame(&out, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != i || string(resp.Body) != `"x"` || resp.Error != "" {
			t.Fatalf("response %d wrong: %+v", i, resp)
		}
	}
}

func TestFrameHeaderAloneAllocatesOneChunk(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out request
	err := readFrame(bytes.NewReader(hdr[:]), &out)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated frame") {
		t.Fatalf("want truncated-frame error, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("header claiming %d bytes with no body allocated %d bytes", MaxFrame, got)
	}
}

func TestFrameGrowsPastFirstChunk(t *testing.T) {
	var buf bytes.Buffer
	in := request{ID: 1, Kind: "big", Body: json.RawMessage(`"` + strings.Repeat("x", 5*frameChunk) + `"`)}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out request
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Body, in.Body) {
		t.Fatalf("body of %d bytes came back as %d bytes", len(in.Body), len(out.Body))
	}
}

// FuzzReadFrame feeds arbitrary bytes to readFrame: it must never panic, and
// a frame it accepts must re-encode to a frame that decodes to the same
// encoding (a null or absent body encodes as null either way).
func FuzzReadFrame(f *testing.F) {
	frame := func(n uint32, body string) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		return append(hdr[:], body...)
	}
	valid := `{"id":3,"kind":"safety/arm","body":{"seed":1}}`
	f.Add(frame(uint32(len(valid)), valid))
	f.Add(frame(0, ""))
	f.Add(frame(MaxFrame+1, ""))
	f.Add(frame(100, `{"id":1`))
	f.Add(frame(11, "not json!!!"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		if err := readFrame(bytes.NewReader(data), &req); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, req); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		var again request
		if err := readFrame(&buf, &again); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		first, _ := json.Marshal(req)
		second, _ := json.Marshal(again)
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip mangled frame: %s -> %s", first, second)
		}
	})
}
