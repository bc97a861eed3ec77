package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	fpc "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// srvSrc is the serving-shaped test module: a fast call, a tunable slow
// call, and a runaway loop only a budget can end.
const srvSrc = `
module srv;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc spin(n) {
  var i = 0;
  var acc = 0;
  while (i < n) {
    acc = acc + fib(10);
    i = i + 1;
  }
  return acc & 0x7FFF;
}
proc forever() {
  var i = 0;
  while (1) { i = i + 1; }
  return i;
}
proc main(n) { return fib(n); }
`

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	return newServerOver(t, srvSrc, fpc.ConfigFastCalls, cfg)
}

// newServerOver serves module srv of src from a pool under the machine
// configuration mcfg.
func newServerOver(t *testing.T, src string, mcfg fpc.Config, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	prog, err := fpc.Build(map[string]string{"srv": src}, "srv", "main", fpc.DefaultLinkOptions(mcfg))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := fpc.NewPool(prog, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(pool, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// call POSTs one request and decodes the response body when it is JSON.
func call(t *testing.T, ts *httptest.Server, req server.CallRequest) (int, server.CallResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/call", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr server.CallResponse
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(data, &cr)
	return resp.StatusCode, cr
}

// scrapeMetrics fetches /metrics and returns the value of every
// un-labeled sample line, plus the full body for labeled lookups.
func scrapeMetrics(t *testing.T, ts *httptest.Server) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		vals[fields[0]] = v
	}
	return vals, string(data)
}

// TestServerMixedConcurrent is the acceptance scenario: 12 concurrent
// clients mixing fast calls, slow calls and a runaway loop. Fast calls
// return correct results, the runaway gets 504 at exactly its budget, and
// the /metrics pool aggregate matches the sum of per-response work to the
// instruction.
func TestServerMixedConcurrent(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		MaxInFlight:    4,
		MaxQueue:       64,
		QueueTimeout:   10 * time.Second,
		DefaultBudget:  20_000_000,
		RequestTimeout: 30 * time.Second,
	})

	const workers = 12
	const perWorker = 6
	const runawayBudget = 20_000
	fib15 := uint16(610)
	spin50 := uint16((50 * 55) & 0x7FFF)

	var (
		mu                        sync.Mutex
		steps, cycles, refs       uint64
		ran, oks, budgetCuts, bad int
		failures                  []string
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var status int
				var cr server.CallResponse
				var check func() string
				switch (w + i) % 3 {
				case 0: // fast call
					status, cr = call(t, ts, server.CallRequest{Module: "srv", Proc: "fib", Args: []int64{15}})
					check = func() string {
						if status != http.StatusOK || len(cr.Results) != 1 || cr.Results[0] != fib15 {
							return fmt.Sprintf("fib: status %d results %v", status, cr.Results)
						}
						return ""
					}
				case 1: // slow call
					status, cr = call(t, ts, server.CallRequest{Module: "srv", Proc: "spin", Args: []int64{50}})
					check = func() string {
						if status != http.StatusOK || len(cr.Results) != 1 || cr.Results[0] != spin50 {
							return fmt.Sprintf("spin: status %d results %v", status, cr.Results)
						}
						return ""
					}
				default: // runaway loop, cut by its budget
					status, cr = call(t, ts, server.CallRequest{Module: "srv", Proc: "forever", Budget: runawayBudget})
					check = func() string {
						if status != http.StatusGatewayTimeout || cr.Error == "" || cr.Steps != runawayBudget {
							return fmt.Sprintf("forever: status %d steps %d err %q", status, cr.Steps, cr.Error)
						}
						return ""
					}
				}
				mu.Lock()
				ran++
				steps += cr.Steps
				cycles += cr.Cycles
				refs += cr.Refs
				switch status {
				case http.StatusOK:
					oks++
				case http.StatusGatewayTimeout:
					budgetCuts++
				default:
					bad++
				}
				if msg := check(); msg != "" {
					failures = append(failures, msg)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	if bad != 0 {
		t.Fatalf("%d requests got unexpected statuses", bad)
	}
	if oks == 0 || budgetCuts == 0 {
		t.Fatalf("mix degenerated: %d oks, %d budget cuts", oks, budgetCuts)
	}

	vals, body := scrapeMetrics(t, ts)
	if got := vals["fpc_pool_runs_total"]; got != float64(ran) {
		t.Errorf("pool runs = %v, want %d", got, ran)
	}
	// The exact-aggregate acceptance check: pool totals == Σ per-response.
	if got := vals["fpc_pool_instructions_total"]; got != float64(steps) {
		t.Errorf("pool instructions = %v, responses sum to %d", got, steps)
	}
	if got := vals["fpc_pool_cycles_total"]; got != float64(cycles) {
		t.Errorf("pool cycles = %v, responses sum to %d", got, cycles)
	}
	if got := vals["fpc_pool_memory_refs_total"]; got != float64(refs) {
		t.Errorf("pool refs = %v, responses sum to %d", got, refs)
	}
	if got := vals["fpc_server_steps_served_total"]; got != float64(steps) {
		t.Errorf("server steps served = %v, responses sum to %d", got, steps)
	}
	if got := vals["fpc_server_accepted_total"]; got != float64(ran) {
		t.Errorf("accepted = %v, want %d", got, ran)
	}
	if got := vals["fpc_server_completed_total"]; got != float64(oks) {
		t.Errorf("completed = %v, want %d", got, oks)
	}
	if got := vals["fpc_server_budget_exceeded_total"]; got != float64(budgetCuts) {
		t.Errorf("budget exceeded = %v, want %d", got, budgetCuts)
	}
	if got := vals["fpc_server_latency_seconds_count"]; got != float64(ran) {
		t.Errorf("latency count = %v, want %d", got, ran)
	}
	if !strings.Contains(body, "fpc_server_latency_seconds_bucket{le=\"+Inf\"}") {
		t.Error("latency histogram missing +Inf bucket")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

// waitMetric polls /metrics until name reaches at least want.
func waitMetric(t *testing.T, ts *httptest.Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		vals, _ := scrapeMetrics(t, ts)
		if vals[name] >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("metric %s never reached %v", name, want)
}

// TestServerSaturation: with one run slot and a one-deep queue, a long
// run saturates the server — the queued request sheds on queue-timeout
// (503) and further requests shed immediately (429).
func TestServerSaturation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		MaxInFlight:    1,
		MaxQueue:       1,
		QueueTimeout:   250 * time.Millisecond,
		DefaultBudget:  400_000_000,
		MaxBudget:      400_000_000,
		RequestTimeout: 60 * time.Second,
	})

	// A: occupies the only slot for the duration of a 400M-step budget
	// (a couple of seconds of wall clock; comfortably longer than every
	// queue timeout below, whatever the engine's step rate).
	statusA := make(chan int, 1)
	go func() {
		s, _ := call(t, ts, server.CallRequest{Module: "srv", Proc: "forever"})
		statusA <- s
	}()
	waitMetric(t, ts, "fpc_server_in_flight", 1)

	// B: fills the one queue position, then times out after 250ms.
	statusB := make(chan int, 1)
	go func() {
		s, _ := call(t, ts, server.CallRequest{Module: "srv", Proc: "fib", Args: []int64{10}})
		statusB <- s
	}()
	waitMetric(t, ts, "fpc_server_queue_depth", 1)

	// C..F: the queue is full — shed immediately with 429. (A straggler
	// that arrives after B's queue position times out may instead take
	// the position and shed with 503; both are load-shed outcomes.)
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed := map[int]int{}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, _ := call(t, ts, server.CallRequest{Module: "srv", Proc: "fib", Args: []int64{10}})
			mu.Lock()
			shed[s]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if n := shed[http.StatusTooManyRequests] + shed[http.StatusServiceUnavailable]; n != 4 {
		t.Fatalf("burst statuses = %v, want all four shed with 429/503", shed)
	}
	if shed[http.StatusTooManyRequests] == 0 {
		t.Fatalf("burst statuses = %v, want at least one queue-full 429", shed)
	}
	if s := <-statusB; s != http.StatusServiceUnavailable {
		t.Fatalf("queued request = %d, want 503 on queue timeout", s)
	}
	if s := <-statusA; s != http.StatusGatewayTimeout {
		t.Fatalf("runaway = %d, want 504 at budget", s)
	}

	vals, _ := scrapeMetrics(t, ts)
	if vals["fpc_server_queue_depth"] != 0 || vals["fpc_server_in_flight"] != 0 {
		t.Errorf("gauges did not return to zero: %v / %v",
			vals["fpc_server_queue_depth"], vals["fpc_server_in_flight"])
	}
}

// TestServerDrain: a drain lets the in-flight call finish with its
// correct result while new calls and health checks get 503.
func TestServerDrain(t *testing.T) {
	// The held call executes trap(1) once, and the pool's trap hook blocks
	// until the test releases it: the call stays in flight for as long as
	// the test needs without spending CPU time, however slow the machine.
	release := make(chan struct{})
	var once sync.Once
	releaseHeld := func() { once.Do(func() { close(release) }) }
	mcfg := fpc.ConfigFastCalls
	mcfg.Trap = func(*fpc.Machine, int) error {
		<-release
		return nil // TRAPB then pushes its default result, 0
	}
	s, ts := newServerOver(t, srvSrc+"proc hold(n) { return trap(1) + n; }\n", mcfg, server.Config{MaxInFlight: 2})
	t.Cleanup(releaseHeld) // runs before ts.Close, which waits for the held call

	type result struct {
		status int
		cr     server.CallResponse
	}
	held := make(chan result, 1)
	go func() {
		st, cr := call(t, ts, server.CallRequest{Module: "srv", Proc: "hold", Args: []int64{7}})
		held <- result{st, cr}
	}()
	waitMetric(t, ts, "fpc_server_in_flight", 1)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitMetric(t, ts, "fpc_server_draining", 1)

	// New work is rejected while draining.
	if st, _ := call(t, ts, server.CallRequest{Module: "srv", Proc: "fib", Args: []int64{5}}); st != http.StatusServiceUnavailable {
		t.Fatalf("call during drain = %d, want 503", st)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", resp.StatusCode)
	}

	// The in-flight call still finishes, correctly, once released.
	releaseHeld()
	r := <-held
	if r.status != http.StatusOK || len(r.cr.Results) != 1 || r.cr.Results[0] != 7 {
		t.Fatalf("drained call: status %d results %v, want 200 [7]", r.status, r.cr.Results)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	vals, _ := scrapeMetrics(t, ts)
	if vals["fpc_server_completed_total"] != 1 {
		t.Errorf("completed = %v, want 1", vals["fpc_server_completed_total"])
	}
	if vals["fpc_server_rejected_total{reason=\"draining\"}"] == 0 {
		// labeled series are parsed as their own keys by scrapeMetrics
		t.Error("draining rejection not counted")
	}
}

// TestServerBadRequests: malformed bodies and unresolvable procedures are
// 400s, wrong method 405.
func TestServerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, err := http.Post(ts.URL+"/call", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d", resp.StatusCode)
	}
	if st, _ := call(t, ts, server.CallRequest{Module: "srv", Proc: "nothere"}); st != http.StatusBadRequest {
		t.Errorf("unknown proc = %d", st)
	}
	if st, _ := call(t, ts, server.CallRequest{Module: "srv", Proc: "fib", Args: []int64{1 << 20}}); st != http.StatusBadRequest {
		t.Errorf("oversized arg = %d", st)
	}
	if st, _ := call(t, ts, server.CallRequest{Proc: "fib"}); st != http.StatusBadRequest {
		t.Errorf("missing module = %d", st)
	}
	resp, err = http.Get(ts.URL + "/call")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /call = %d", resp.StatusCode)
	}
	vals, _ := scrapeMetrics(t, ts)
	if vals["fpc_server_bad_requests_total"] != 4 {
		t.Errorf("bad requests = %v, want 4", vals["fpc_server_bad_requests_total"])
	}
}

// TestQueueTimerNotRetained: a request that finds a free run slot arms no
// queue timer, so a long QueueTimeout leaves nothing live behind it. A
// timer armed for every request would stay reachable for the full
// timeout and grow the heap by a few objects per request.
func TestQueueTimerNotRetained(t *testing.T) {
	s, _ := newTestServer(t, server.Config{QueueTimeout: time.Hour})
	body := []byte(`{"args":[3]}`)
	path := "/call/" + s.BootHash()
	serve := func(n int) {
		for i := 0; i < n; i++ {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	}
	liveObjects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	serve(100)
	before := liveObjects()
	const n = 10_000
	serve(n)
	after := liveObjects()
	grown := int64(after) - int64(before)
	if grown >= 1000 {
		t.Fatalf("%d requests left %d more live heap objects, want fewer than 1000", n, grown)
	}
	t.Logf("%d requests: live heap objects grew by %d", n, grown)
}

// TestRequestDeadline: the wall-clock deadline alone cuts a runaway run.
// The machine's step limit and every budget are far beyond what the loop
// can reach in RequestTimeout, so only the clock can end it. srv.forever
// through /call/{hash} and through /session each answers 504 with the
// deadline named in its error and the partial work in Steps, and /metrics
// accounts both cuts and exactly the steps the responses report.
func TestRequestDeadline(t *testing.T) {
	const endless = 1 << 62
	mcfg := fpc.ConfigFastCalls
	mcfg.MaxSteps = endless
	s, ts := newServerOver(t, srvSrc, mcfg, server.Config{
		RequestTimeout: 100 * time.Millisecond,
		DefaultBudget:  endless,
		MaxBudget:      endless,
	})

	const want = "context deadline exceeded"
	status, rr := callHash(t, ts, s.BootHash(), server.CallRequest{Module: "srv", Proc: "forever"})
	if status != http.StatusGatewayTimeout || !strings.HasSuffix(rr.Error, want) || rr.Steps == 0 {
		t.Fatalf("/call/{hash}: status %d, error %q, steps %d; want 504, %q, steps > 0", status, rr.Error, rr.Steps, want)
	}
	status, sr := postSession(t, ts, "/session", "", server.SessionRequest{Module: "srv", Proc: "forever"})
	if status != http.StatusGatewayTimeout || !strings.HasSuffix(sr.Error, want) || sr.Steps == 0 || sr.Parked {
		t.Fatalf("/session: status %d, error %q, steps %d, parked %v; want 504, %q, steps > 0", status, sr.Error, sr.Steps, sr.Parked, want)
	}

	vals, _ := scrapeMetrics(t, ts)
	if got := vals["fpc_server_budget_exceeded_total"]; got != 2 {
		t.Errorf("fpc_server_budget_exceeded_total = %v, want 2", got)
	}
	if got, want := vals["fpc_server_steps_served_total"], float64(rr.Steps+sr.Steps); got != want {
		t.Errorf("fpc_server_steps_served_total = %v, want %v (the responses' steps)", got, want)
	}
	t.Logf("cut after %d and %d instructions", rr.Steps, sr.Steps)
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// recorder is a reusable http.ResponseWriter: unlike httptest's, it
// copies no header snapshot, so an allocation count over ServeHTTP is the
// server's own.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

func (r *recorder) reset() {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// TestCallHashAllocs bounds the allocations of a served call-short
// request: POST /call/{hash} through ServeHTTP on the boot image fib(3)
// and on traps(2) and sieve(9) admitted through a verifying registry,
// with each request, its body and the recorder reused as a load generator
// would. fib(3) reads 16 on Go 1.24, against 27 with http.ServeMux
// routing, a context.WithTimeout timer and a reflective reply encoder;
// the bound leaves 2 for other Go versions. traps(2) and sieve(9) send
// and get the same shapes (no args, one result, no output), so they must
// allocate alike; a reply that rebuilt sieve's list of certificate
// reasons on every request read 12 against traps' 10.
func TestCallHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const max = 18
	s, _ := newTestServer(t, server.Config{Verify: true})
	type row struct {
		name, hash string
		args       []int64
		want       fpc.Word
	}
	rows := []row{{"fib(3)", s.BootHash(), []int64{3}, 2}}
	for _, p := range []*workload.Program{workload.Traps(2), workload.Sieve(9)} {
		prog, _, err := p.Build(fpc.DefaultLinkOptions(fpc.ConfigFastCalls))
		if err != nil {
			t.Fatal(err)
		}
		ent, _, err := s.Registry().Submit(prog)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res, err := ent.Pool().Call(ent.Image().Entry())
		if err != nil || len(res) != 1 {
			t.Fatalf("%s: direct call %v %v", p.Name, res, err)
		}
		rows = append(rows, row{p.Name, prog.ContentHash(), nil, res[0]})
	}
	allocs := map[string]float64{}
	for _, c := range rows {
		body, err := json.Marshal(server.CallRequest{Args: c.args})
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte(fmt.Sprintf(`{"results":[%d],`, c.want))
		req := httptest.NewRequest(http.MethodPost, "/call/"+c.hash, nil)
		var rd bytes.Reader
		req.Body = io.NopCloser(&rd)
		var rec recorder
		got := testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			rec.reset()
			s.ServeHTTP(&rec, req)
			if rec.status != http.StatusOK || !bytes.HasPrefix(rec.body.Bytes(), prefix) {
				t.Fatalf("%s: status %d: %s", c.name, rec.status, rec.body.Bytes())
			}
		})
		t.Logf("%s: %.1f allocations per request", c.name, got)
		if got > max {
			t.Errorf("%s: %.1f allocations per request, want at most %d", c.name, got, max)
		}
		allocs[c.name] = got
	}
	if allocs["sieve(9)"] != allocs["traps(2)"] {
		t.Errorf("sieve(9) allocates %.1f per request and traps(2) %.1f; the same request shape must allocate alike",
			allocs["sieve(9)"], allocs["traps(2)"])
	}
}

// TestRouting pins each of the seven endpoints to its handler by a reply
// only that handler gives, and answers every other path 404. A path is
// matched as sent: a non-canonical one is not cleaned or redirected but
// reaches the handler its prefix names, which refuses it, or none.
func TestRouting(t *testing.T) {
	s, _ := newTestServer(t, server.Config{})
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	run, err := json.Marshal(server.RunRequest{Modules: map[string]string{"m": progSrcN(1)}, Entry: "m.main", Args: []int64{5}})
	if err != nil {
		t.Fatal(err)
	}
	boot := s.BootHash()
	for _, c := range []struct {
		method, path, body string
		status             int
		prefix             string // the reply's leading bytes
	}{
		{"POST", "/call", `{"module":"srv","proc":"main","args":[5]}`, 200, `{"results":[5],"steps":`},
		// /call's results has no omitempty: a budget cut prints [], not null.
		{"POST", "/call", `{"module":"srv","proc":"forever","budget":1000}`, 504, `{"results":[],"steps":1000,`},
		{"POST", "/call/" + boot, `{"args":[5]}`, 200, `{"results":[5],"steps":`},
		{"POST", "/run", string(run), 200, `{"results":[6],"steps":`},
		{"POST", "/session", `{"args":[5]}`, 200, `{"done":true,"parked":false,"hash":"` + boot},
		{"POST", "/session/nope/resume", ``, 404, `{"done":false,"parked":false,"steps":0,"total_steps":0,"cycles":0,"refs":0,"segments":0,"error":"no parked session`},
		{"GET", "/healthz", ``, 200, "ok\n"},
		{"GET", "/metrics", ``, 200, "# HELP fpc_pool_runs_total "},
		{"POST", "/call/../run", string(run), 400, "want /call/{content-hash}\n"},
		{"POST", "/session/x/../resume", ``, 400, "want /session/{id}/resume\n"},
	} {
		rec := serve(c.method, c.path, c.body)
		if rec.Code != c.status || !strings.HasPrefix(rec.Body.String(), c.prefix) {
			t.Errorf("%s %s: %d %q, want %d %q...", c.method, c.path, rec.Code, rec.Body, c.status, c.prefix)
		}
	}
	// /call and /call/{hash} replies start alike; only the second carries
	// the image's hash.
	if rec := serve("POST", "/call", `{"module":"srv","proc":"main","args":[5]}`); strings.Contains(rec.Body.String(), `"hash"`) {
		t.Errorf("/call reply carries a hash: %s", rec.Body)
	}
	if rec := serve("POST", "/call/"+boot, `{"args":[5]}`); !strings.Contains(rec.Body.String(), `"hash":"`+boot+`","cached":true`) {
		t.Errorf("/call/{hash} reply lacks the hash: %s", rec.Body)
	}

	for _, path := range []string{"/", "/calls", "/call2", "/Call", "/run/", "/runs", "/sessions", "/healthz/", "/metrics/", "//call", "/x/../call"} {
		if rec := serve("POST", path, `{}`); rec.Code != http.StatusNotFound || rec.Body.String() != "404 page not found\n" {
			t.Errorf("POST %s: %d %q, want 404", path, rec.Code, rec.Body)
		}
	}
}
