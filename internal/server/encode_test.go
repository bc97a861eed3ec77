package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fragments are the pieces generated strings are built from: plain text
// and hex, every character encoding/json escapes or replaces, and text it
// copies as it is.
var fragments = []string{
	"", "a", "srv.forever at pc 000123", "0123456789abcdef",
	"core: run canceled: context deadline exceeded", "stack-overflow",
	"<", ">", "&", `"`, `\`, "/", "'", "\x00", "\x01", "\x08", "\t", "\n",
	"\f", "\r", "\x1b", "\x1f", " ", "~", "\x7f",
	"\xff", "\xfe", "\xc3", "\xc3\x28", "\xe2\x82", "\xed\xa0\x80", "\xf0\x9f\x98",
	"\u2028", "\u2029", "\u2027", "\u202a", "é", "日本語", "🙂", "\ufffd", "\u00a0",
}

func genString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		sb.WriteString(fragments[rng.Intn(len(fragments))])
	}
	return sb.String()
}

// genWords returns nil, an empty slice or up to 8 words, extremes included.
func genWords(rng *rand.Rand) []uint16 {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []uint16{}
	}
	ws := make([]uint16, 1+rng.Intn(8))
	for i := range ws {
		ws[i] = []uint16{0, 1, 9, 10, 0x7fff, 0x8000, math.MaxUint16, uint16(rng.Uint32())}[rng.Intn(8)]
	}
	return ws
}

func genStrings(rng *rand.Rand) []string {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	ss := make([]string, 1+rng.Intn(4))
	for i := range ss {
		ss[i] = genString(rng)
	}
	return ss
}

func genCount(rng *rand.Rand) uint64 {
	return []uint64{0, 1, 9, 10, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MaxUint64, rng.Uint64(), uint64(rng.Intn(1000))}[rng.Intn(10)]
}

// TestAppendRunResponse is the encoder's differential test: over
// generated RunResponse values it must write exactly the bytes of
// json.NewEncoder(...).Encode.
func TestAppendRunResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var want bytes.Buffer
	var got []byte
	for i := 0; i < 20000; i++ {
		r := RunResponse{
			Results: genWords(rng), Output: genWords(rng),
			Steps: genCount(rng), Cycles: genCount(rng), Refs: genCount(rng),
			Hash: genString(rng), Cached: rng.Intn(2) == 0, Certified: rng.Intn(2) == 0,
			Error: genString(rng), Diagnostics: genStrings(rng),
		}
		want.Reset()
		if err := json.NewEncoder(&want).Encode(&r); err != nil {
			t.Fatal(err)
		}
		got = appendRunResponse(got[:0], &r)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("value %d %#v:\nencoded %q\nwant    %q", i, r, got, want.Bytes())
		}
	}
}

// TestWriteRun: writeRun sends the status, header and body writeJSON
// sends, and reuses its buffer without carrying one reply into the next.
func TestWriteRun(t *testing.T) {
	for _, r := range []RunResponse{
		{Results: []uint16{2}, Steps: 52, Cycles: 300, Refs: 40, Hash: "ab12", Cached: true, Certified: true},
		{Error: "no cached image for this hash; submit it through /run"},
		{Error: "program rejected by verifier", Diagnostics: []string{`pc 0003: "x" <stack-overflow>`}},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeRun(got, http.StatusGatewayTimeout, &r)
		writeJSON(want, http.StatusGatewayTimeout, &r)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") || got.Body.String() != want.Body.String() {
			t.Errorf("writeRun: %d %q %q, writeJSON: %d %q %q", got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}
