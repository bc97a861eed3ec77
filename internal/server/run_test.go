package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// deepSrc compiles but definitely overflows the 13-word evaluation stack:
// every nesting level of 1+(…) holds one operand across the inner
// expression, so the 17th literal pushes to depth 14. The verifier proves
// this statically; the runtime only finds out by executing it.
func deepSrc() string {
	var b strings.Builder
	b.WriteString("module m;\nproc main() { return ")
	for i := 0; i < 16; i++ {
		b.WriteString("1+(")
	}
	b.WriteString("1")
	b.WriteString(strings.Repeat(")", 16))
	b.WriteString("; }\n")
	return b.String()
}

const goodSrc = `
module m;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc main(n) { return fib(n); }
`

// runPost POSTs one /run request and decodes the response.
func runPost(t *testing.T, ts *httptest.Server, req server.RunRequest) (int, server.RunResponse) {
	t.Helper()
	status, text := postText(t, ts, "/run", req)
	var rr server.RunResponse
	json.Unmarshal([]byte(text), &rr)
	return status, rr
}

// A healthy submitted program runs to completion.
func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Verify: true})
	status, rr := runPost(t, ts, server.RunRequest{
		Modules: map[string]string{"m": goodSrc},
		Entry:   "m.main",
		Args:    []int64{10},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d (%+v)", status, rr)
	}
	if len(rr.Results) != 1 || rr.Results[0] != 55 {
		t.Errorf("results %v, want [55]", rr.Results)
	}
	if rr.Steps == 0 {
		t.Error("no steps accounted")
	}
}

// The acceptance criterion: a verifier-rejected program gets a 400 — not a
// 504 after its budget burns, not a 500 from the runtime fault — with the
// diagnostics in the body, zero steps spent, and the rejection counted by
// fpcd_verify_rejected_total.
func TestRunVerifyRejected(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Verify: true})
	status, rr := runPost(t, ts, server.RunRequest{
		Modules: map[string]string{"m": deepSrc()},
		Entry:   "m.main",
	})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%+v)", status, rr)
	}
	if rr.Steps != 0 {
		t.Errorf("verifier-rejected program consumed %d steps", rr.Steps)
	}
	if len(rr.Diagnostics) == 0 {
		t.Error("no diagnostics in rejection body")
	} else if !strings.Contains(strings.Join(rr.Diagnostics, "\n"), "stack-overflow") {
		t.Errorf("diagnostics missing stack-overflow reason: %v", rr.Diagnostics)
	}
	vals, _ := scrapeMetrics(t, ts)
	if vals["fpcd_verify_rejected_total"] != 1 {
		t.Errorf("fpcd_verify_rejected_total = %v, want 1", vals["fpcd_verify_rejected_total"])
	}
	if vals["fpc_server_steps_served_total"] != 0 {
		t.Errorf("steps served = %v, want 0", vals["fpc_server_steps_served_total"])
	}
}

// Without verify-at-admission the same program is admitted, burns real
// budget, and fails at run time — the contrast the mode exists to remove.
func TestRunVerifyOff(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	status, rr := runPost(t, ts, server.RunRequest{
		Modules: map[string]string{"m": deepSrc()},
		Entry:   "m.main",
	})
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%+v)", status, rr)
	}
	if rr.Steps == 0 {
		t.Error("unverified run should have consumed steps before faulting")
	}
	vals, _ := scrapeMetrics(t, ts)
	if vals["fpcd_verify_rejected_total"] != 0 {
		t.Errorf("fpcd_verify_rejected_total = %v, want 0", vals["fpcd_verify_rejected_total"])
	}
}

// postText POSTs v as JSON to path and returns the status and the body.
func postText(t *testing.T, ts *httptest.Server, path string, v any) (int, string) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestRunBadRequests: every malformed /run body is a 400 with its own
// text. /session builds a submitted program on the same path, so the same
// program and arguments get the same 400 and text there. A body with two
// faults shows the order each endpoint checks them in: /run checks the
// entry before the arguments, /session the arguments first.
func TestRunBadRequests(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Verify: true})
	const (
		badEntry = "entry must be \"module.proc\"\n"
		badArg   = "arg 0 out of 16-bit range: 99999\n"
		rejected = `{"steps":0,"cycles":0,"refs":0,"cached":false,"error":"program rejected by verifier",` +
			`"diagnostics":["error: pc 000022 (m.main): stack-overflow: LI1 pushes to depth 14 past the 13-word stack"]}` + "\n"
	)
	good := map[string]string{"m": goodSrc}
	cases := []struct {
		name         string
		req          server.RunRequest
		run, session string // the 400 texts; session "" sends no /session request
	}{
		{"no modules", server.RunRequest{}, "modules are required\n", ""},
		{"no entry", server.RunRequest{Modules: good}, badEntry, badEntry},
		{"malformed entry", server.RunRequest{Modules: good, Entry: "nodot"}, badEntry, badEntry},
		{"compile error", server.RunRequest{Modules: map[string]string{"m": "not a module"}, Entry: "m.main"},
			"build: m:1:1: expected module, found \"not\"\n", "build: m:1:1: expected module, found \"not\"\n"},
		{"arg range", server.RunRequest{Modules: good, Entry: "m.main", Args: []int64{99999}}, badArg, badArg},
		{"verifier rejects", server.RunRequest{Modules: map[string]string{"m": deepSrc()}, Entry: "m.main"}, rejected, rejected},
		{"malformed entry and arg range", server.RunRequest{Modules: good, Entry: "nodot", Args: []int64{99999}}, badEntry, badArg},
	}
	for _, c := range cases {
		if status, text := postText(t, ts, "/run", c.req); status != http.StatusBadRequest || text != c.run {
			t.Errorf("%s: /run answered %d %q, want 400 %q", c.name, status, text, c.run)
		}
		if c.session == "" {
			continue
		}
		sreq := server.SessionRequest{Modules: c.req.Modules, Entry: c.req.Entry, Args: c.req.Args}
		if status, text := postText(t, ts, "/session", sreq); status != http.StatusBadRequest || text != c.session {
			t.Errorf("%s: /session answered %d %q, want 400 %q", c.name, status, text, c.session)
		}
	}
}

// TestRunBodyCap: a /run body one byte past the 1 MiB cap is answered 413
// before anything is decoded into a build, so the registry sees neither a
// hit nor a miss.
func TestRunBodyCap(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Verify: true})
	const limit = 1 << 20
	body, err := json.Marshal(server.RunRequest{
		Modules: map[string]string{"m": goodSrc},
		Entry:   "m.main",
		Args:    []int64{10},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pad the source with trailing blanks until the whole body is exactly
	// one byte past the cap: still valid JSON and a valid program.
	pad := strings.Repeat(" ", limit+1-len(body))
	body = bytes.Replace(body, []byte(`\n"}`), []byte(`\n`+pad+`"}`), 1)
	if len(body) != limit+1 {
		t.Fatalf("body is %d bytes, want %d", len(body), limit+1)
	}
	before := s.Registry().Stats()
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	after := s.Registry().Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("registry moved: hits %d→%d misses %d→%d", before.Hits, after.Hits, before.Misses, after.Misses)
	}
}

// TestRunSourceCap: a /run body under the 1 MiB body cap whose module is a
// 400 KB flat 1+1+...+1 chain is refused by the frontend's source-size cap
// with 400, before anything reaches the registry, which sees neither a hit
// nor a miss.
func TestRunSourceCap(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Verify: true})
	src := "module m;\nproc main() { return 1" + strings.Repeat("+1", 199_999) + "; }\n"
	body, err := json.Marshal(server.RunRequest{Modules: map[string]string{"m": src}, Entry: "m.main"})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Registry().Stats()
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(msg), "limit") {
		t.Errorf("body %q does not explain the source-size limit", msg)
	}
	after := s.Registry().Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("registry moved: hits %d→%d misses %d→%d", before.Hits, after.Hits, before.Misses, after.Misses)
	}
}
