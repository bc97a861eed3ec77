package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// RunResponse is the reply of every /call/{hash} and /run request, so it
// is encoded by hand: appendRunResponse writes the bytes
// json.NewEncoder(w).Encode(resp) would, into a buffer reused across
// requests, with no reflection. Strings that need escaping, which the
// hashes, reason codes and most error texts never do, are handed to
// encoding/json, so every byte of the escaping is its own.

// runBufs holds the encode buffers. A buffer grown past maxPooledBuf by a
// large output record is left to the collector rather than kept.
var runBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 64 << 10

// writeRun writes resp with status, as writeJSON would.
func writeRun(w http.ResponseWriter, status int, resp *RunResponse) {
	bp := runBufs.Get().(*[]byte)
	b := appendRunResponse((*bp)[:0], resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	if cap(b) <= maxPooledBuf {
		*bp = b
		runBufs.Put(bp)
	}
}

// appendRunResponse appends the JSON encoding of r, newline included, as
// json.Encoder.Encode writes it: fields in declaration order, omitempty
// fields left out when empty, HTML-sensitive characters escaped.
func appendRunResponse(b []byte, r *RunResponse) []byte {
	b = append(b, '{')
	if len(r.Results) > 0 {
		b = appendWords(append(b, `"results":`...), r.Results)
		b = append(b, ',')
	}
	if len(r.Output) > 0 {
		b = appendWords(append(b, `"output":`...), r.Output)
		b = append(b, ',')
	}
	b = strconv.AppendUint(append(b, `"steps":`...), r.Steps, 10)
	b = strconv.AppendUint(append(b, `,"cycles":`...), r.Cycles, 10)
	b = strconv.AppendUint(append(b, `,"refs":`...), r.Refs, 10)
	if r.Hash != "" {
		b = appendString(append(b, `,"hash":`...), r.Hash)
	}
	b = strconv.AppendBool(append(b, `,"cached":`...), r.Cached)
	if r.Error != "" {
		b = appendString(append(b, `,"error":`...), r.Error)
	}
	if len(r.Diagnostics) > 0 {
		b = appendStrings(append(b, `,"diagnostics":`...), r.Diagnostics)
	}
	return append(b, "}\n"...)
}

func appendWords(b []byte, ws []uint16) []byte {
	b = append(b, '[')
	for i, w := range ws {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(w), 10)
	}
	return append(b, ']')
}

func appendStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendString appends s as a JSON string. Printable ASCII other than the
// quote, the backslash and the HTML characters < > & is copied as it is;
// a string with any other byte is encoded by encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
