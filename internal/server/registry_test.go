package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// progSrcN builds a distinct program per id: linked bytes differ in one
// constant, so each id gets its own content hash and cache entry.
func progSrcN(id int) string {
	return fmt.Sprintf(`
module m;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc main(n) { return fib(n) + %d; }
`, id)
}

// callAs is call with an X-Tenant header.
func callAs(t *testing.T, ts *httptest.Server, tenant string, req server.CallRequest) (int, server.CallResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/call", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(hr)
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

// callHash POSTs /call/{hash}.
func callHash(t *testing.T, ts *httptest.Server, hash string, req server.CallRequest) (int, server.RunResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/call/"+hash, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr server.RunResponse
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(data, &rr)
	return resp.StatusCode, rr
}

// TestRunSubmitOrHit is the registry acceptance path end to end: the
// first /run of a program pays the load path (cached:false), the second
// is a pure cache hit (cached:true, same hash, same answer), and the
// /metrics registry counters prove verify+predecode ran exactly once.
func TestRunSubmitOrHit(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Verify: true})

	req := server.RunRequest{
		Modules: map[string]string{"m": goodSrc},
		Entry:   "m.main",
		Args:    []int64{10},
	}
	st1, rr1 := runPost(t, ts, req)
	if st1 != http.StatusOK || len(rr1.Results) != 1 || rr1.Results[0] != 55 {
		t.Fatalf("first run: status %d results %v", st1, rr1.Results)
	}
	if rr1.Cached {
		t.Error("first sight reported cached")
	}
	if len(rr1.Hash) != 64 {
		t.Fatalf("hash %q, want 64-hex content address", rr1.Hash)
	}

	st2, rr2 := runPost(t, ts, req)
	if st2 != http.StatusOK || len(rr2.Results) != 1 || rr2.Results[0] != 55 {
		t.Fatalf("second run: status %d results %v", st2, rr2.Results)
	}
	if !rr2.Cached {
		t.Error("repeat submission missed the cache")
	}
	if rr2.Hash != rr1.Hash {
		t.Errorf("hash changed across submissions: %s vs %s", rr1.Hash, rr2.Hash)
	}

	vals, _ := scrapeMetrics(t, ts)
	if vals["fpc_registry_misses_total"] != 1 {
		t.Errorf("misses = %v, want exactly 1 load for two submissions", vals["fpc_registry_misses_total"])
	}
	if vals["fpc_registry_hits_total"] != 1 {
		t.Errorf("hits = %v, want 1", vals["fpc_registry_hits_total"])
	}
	// Resident: the pinned boot image plus the submitted program.
	if vals["fpc_registry_resident_images"] != 2 {
		t.Errorf("resident = %v, want 2", vals["fpc_registry_resident_images"])
	}
	if vals["fpc_registry_memory_bytes"] <= 0 {
		t.Error("no memory accounted for resident images")
	}
}

// TestCallByHash: the content address /run returns is directly invokable —
// entry proc by default, any named proc on request — and an unknown or
// evicted hash is a 404 pointing the client back to /run.
func TestCallByHash(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Verify: true})

	_, rr := runPost(t, ts, server.RunRequest{
		Modules: map[string]string{"m": goodSrc},
		Entry:   "m.main",
		Args:    []int64{10},
	})
	if len(rr.Hash) != 64 {
		t.Fatalf("no hash from /run: %+v", rr)
	}

	// Entry proc by default.
	st, hr := callHash(t, ts, rr.Hash, server.CallRequest{Args: []int64{12}})
	if st != http.StatusOK || len(hr.Results) != 1 || hr.Results[0] != 144 {
		t.Fatalf("call by hash: status %d results %v, want [144]", st, hr.Results)
	}
	if !hr.Cached || hr.Hash != rr.Hash {
		t.Errorf("call by hash: cached=%v hash=%q", hr.Cached, hr.Hash)
	}

	// A named procedure of the cached program.
	st, hr = callHash(t, ts, rr.Hash, server.CallRequest{Module: "m", Proc: "fib", Args: []int64{12}})
	if st != http.StatusOK || len(hr.Results) != 1 || hr.Results[0] != 144 {
		t.Fatalf("named proc by hash: status %d results %v", st, hr.Results)
	}

	// Unknown hash: 404, counted on both the server and the registry.
	st, hr = callHash(t, ts, strings.Repeat("ab", 32), server.CallRequest{Args: []int64{1}})
	if st != http.StatusNotFound {
		t.Fatalf("unknown hash: status %d, want 404", st)
	}
	if hr.Error == "" {
		t.Error("404 body carries no error")
	}

	// Evicting the image turns its hash into a 404 too.
	if !s.Registry().Evict(rr.Hash) {
		t.Fatal("evict failed")
	}
	st, _ = callHash(t, ts, rr.Hash, server.CallRequest{Args: []int64{1}})
	if st != http.StatusNotFound {
		t.Fatalf("evicted hash: status %d, want 404", st)
	}

	vals, _ := scrapeMetrics(t, ts)
	if vals["fpc_server_not_found_total"] != 2 {
		t.Errorf("server not_found = %v, want 2", vals["fpc_server_not_found_total"])
	}
	if vals["fpc_registry_not_found_total"] != 2 {
		t.Errorf("registry not_found = %v, want 2", vals["fpc_registry_not_found_total"])
	}
	if vals["fpc_registry_evictions_total"] != 1 {
		t.Errorf("evictions = %v, want 1", vals["fpc_registry_evictions_total"])
	}
}

// TestTenantIsolation is the fairness acceptance scenario: tenant A
// saturates its shard — its excess requests shed 429/503 from A's own
// bounded queue — while tenant B's requests all complete with untouched
// latency, and /metrics attributes every shed to A alone.
func TestTenantIsolation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		MaxInFlight:       4,
		MaxQueue:          64,
		QueueTimeout:      200 * time.Millisecond,
		TenantMaxInFlight: 1,
		TenantMaxQueue:    1,
		DefaultBudget:     400_000_000,
		MaxBudget:         400_000_000,
		RequestTimeout:    60 * time.Second,
	})

	// A's long call occupies its single tenant token for ~half a second
	// (≈58M steps at the engine's observed ~10⁸ steps/s) — far past the
	// 200ms tenant queue timeout. 30000 is near the top of the signed
	// 16-bit range the language's loop comparison works in.
	spinN := int64(30_000)
	spinWant := uint16((30_000 * 55) & 0x7FFF)
	slowA := make(chan server.CallResponse, 1)
	slowAStatus := make(chan int, 1)
	go func() {
		st, cr := callAs(t, ts, "A", server.CallRequest{Module: "srv", Proc: "spin", Args: []int64{spinN}})
		slowAStatus <- st
		slowA <- cr
	}()
	waitMetric(t, ts, `fpc_tenant_in_flight{tenant="A"}`, 1)

	// A's burst: the tenant queue holds one (sheds 503 on timeout, long
	// before the spin ends), the rest shed 429 immediately.
	var wg sync.WaitGroup
	var mu sync.Mutex
	shedA := map[int]int{}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _ := callAs(t, ts, "A", server.CallRequest{Module: "srv", Proc: "fib", Args: []int64{10}})
			mu.Lock()
			shedA[st]++
			mu.Unlock()
		}()
	}

	// B, meanwhile: every request completes. The global slot pool has
	// room (MaxInFlight 4, A can hold at most 1), so A's saturation is
	// invisible to B.
	fib15 := uint16(610)
	for i := 0; i < 5; i++ {
		st, cr := callAs(t, ts, "B", server.CallRequest{Module: "srv", Proc: "fib", Args: []int64{15}})
		if st != http.StatusOK || len(cr.Results) != 1 || cr.Results[0] != fib15 {
			t.Fatalf("tenant B request %d: status %d results %v — B must be untouched by A's overload", i, st, cr.Results)
		}
	}

	wg.Wait()
	if n := shedA[http.StatusTooManyRequests] + shedA[http.StatusServiceUnavailable]; n != 3 {
		t.Fatalf("tenant A burst statuses = %v, want all three shed", shedA)
	}
	if shedA[http.StatusTooManyRequests] == 0 {
		t.Fatalf("tenant A burst statuses = %v, want at least one tenant-queue-full 429", shedA)
	}

	// A's original call still completes correctly: saturation sheds the
	// excess, it does not corrupt the admitted work.
	if st := <-slowAStatus; st != http.StatusOK {
		t.Fatalf("tenant A slow call = %d, want 200", st)
	}
	if cr := <-slowA; len(cr.Results) != 1 || cr.Results[0] != spinWant {
		t.Fatalf("tenant A slow call results %v, want [%d]", cr.Results, spinWant)
	}

	vals, _ := scrapeMetrics(t, ts)
	aShed := vals[`fpc_tenant_rejected_total{tenant="A",reason="queue_full"}`] +
		vals[`fpc_tenant_rejected_total{tenant="A",reason="queue_timeout"}`]
	if aShed != 3 {
		t.Errorf("tenant A rejected = %v, want 3", aShed)
	}
	for _, reason := range []string{"queue_full", "queue_timeout", "step_quota"} {
		key := fmt.Sprintf(`fpc_tenant_rejected_total{tenant="B",reason=%q}`, reason)
		if vals[key] != 0 {
			t.Errorf("%s = %v, want 0 — B must shed nothing", key, vals[key])
		}
	}
	if vals[`fpc_tenant_completed_total{tenant="B"}`] != 5 {
		t.Errorf("tenant B completed = %v, want 5", vals[`fpc_tenant_completed_total{tenant="B"}`])
	}
	if vals[`fpc_server_rejected_total{reason="tenant"}`] != 3 {
		t.Errorf("tenant-attributed sheds = %v, want 3", vals[`fpc_server_rejected_total{reason="tenant"}`])
	}
	if vals[`fpc_tenant_accepted_total{tenant="A"}`] != 1 {
		t.Errorf("tenant A accepted = %v, want 1", vals[`fpc_tenant_accepted_total{tenant="A"}`])
	}
}

// TestTenantStepQuota: the step-rate bucket is debited with the steps a
// run actually executed, so one expensive call puts its tenant in debt
// and the next request sheds 429 — while another tenant's bucket is its
// own and admits freely.
func TestTenantStepQuota(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		TenantStepRate:  1, // ~no refill on test timescales
		TenantStepBurst: 100,
	})

	// fib(15) costs tens of thousands of steps — far past A's 100-step
	// bucket, which admits it (non-empty) and then goes deeply negative.
	st, cr := callAs(t, ts, "A", server.CallRequest{Module: "srv", Proc: "fib", Args: []int64{15}})
	if st != http.StatusOK || len(cr.Results) != 1 || cr.Results[0] != 610 {
		t.Fatalf("tenant A first call: status %d results %v", st, cr.Results)
	}
	if st, _ := callAs(t, ts, "A", server.CallRequest{Module: "srv", Proc: "fib", Args: []int64{5}}); st != http.StatusTooManyRequests {
		t.Fatalf("tenant A over quota: status %d, want 429", st)
	}
	if st, _ := callAs(t, ts, "B", server.CallRequest{Module: "srv", Proc: "fib", Args: []int64{5}}); st != http.StatusOK {
		t.Fatalf("tenant B: status %d, want 200 — quotas are per tenant", st)
	}

	vals, _ := scrapeMetrics(t, ts)
	if vals[`fpc_tenant_rejected_total{tenant="A",reason="step_quota"}`] != 1 {
		t.Errorf("A step-quota sheds = %v, want 1", vals[`fpc_tenant_rejected_total{tenant="A",reason="step_quota"}`])
	}
	if vals[`fpc_tenant_steps_served_total{tenant="A"}`] == 0 {
		t.Error("A served steps not accounted")
	}
}

// TestServerRegistryHammer is the server-level eviction hammer: 12
// goroutines mix /run submissions of 6 distinct programs, /call/{hash}
// invocations and explicit evictions against a 3-image cache, then the
// /metrics counters must balance to the operation: every submit and
// lookup is exactly one hit, miss or not-found, and misses equal
// evictions plus surviving residents.
func TestServerRegistryHammer(t *testing.T) {
	s, ts := newTestServer(t, server.Config{
		Verify:         true,
		CacheImages:    3, // pinned boot + 2 programs
		MaxInFlight:    8,
		MaxQueue:       256,
		QueueTimeout:   10 * time.Second,
		RequestTimeout: 30 * time.Second,
	})

	const workers = 12
	const perWorker = 25
	const programs = 6

	var (
		mu      sync.Mutex
		hashOf  = map[int]string{} // program id -> content hash
		idOf    = map[string]int{} // content hash -> program id
		ops     int                // registry-counted operations issued
		hashes  []string
		badness []string
	)
	run := func(id int) {
		st, rr := runPost(t, ts, server.RunRequest{
			Modules: map[string]string{"m": progSrcN(id)},
			Entry:   "m.main",
			Args:    []int64{10},
		})
		want := uint16(55 + id)
		mu.Lock()
		defer mu.Unlock()
		ops++
		if st != http.StatusOK {
			badness = append(badness, fmt.Sprintf("run %d: status %d", id, st))
			return
		}
		if len(rr.Results) != 1 || rr.Results[0] != want {
			badness = append(badness, fmt.Sprintf("run %d: results %v, want [%d]", id, rr.Results, want))
			return
		}
		if _, ok := idOf[rr.Hash]; !ok {
			idOf[rr.Hash] = id
			hashOf[id] = rr.Hash
			hashes = append(hashes, rr.Hash)
		}
	}
	lookup := func(pick int) {
		mu.Lock()
		if len(hashes) == 0 {
			mu.Unlock()
			return
		}
		h := hashes[pick%len(hashes)]
		id := idOf[h]
		mu.Unlock()
		st, rr := callHash(t, ts, h, server.CallRequest{Args: []int64{10}})
		mu.Lock()
		defer mu.Unlock()
		ops++
		switch st {
		case http.StatusOK:
			want := uint16(55 + id)
			if len(rr.Results) != 1 || rr.Results[0] != want {
				badness = append(badness, fmt.Sprintf("call %s: results %v, want [%d]", h[:8], rr.Results, want))
			}
			if !rr.Cached {
				badness = append(badness, fmt.Sprintf("call %s: 200 without cached", h[:8]))
			}
		case http.StatusNotFound:
			// evicted between record and call — the expected miss shape
		default:
			badness = append(badness, fmt.Sprintf("call %s: status %d", h[:8], st))
		}
	}
	evict := func(pick int) {
		mu.Lock()
		if len(hashes) == 0 {
			mu.Unlock()
			return
		}
		h := hashes[pick%len(hashes)]
		mu.Unlock()
		s.Registry().Evict(h) // counted by the registry, not an op
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch (w + i) % 4 {
				case 0, 1:
					run((w*7 + i) % programs)
				case 2:
					lookup(w*31 + i)
				default:
					evict(w*13 + i)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, b := range badness {
		t.Error(b)
	}

	vals, _ := scrapeMetrics(t, ts)
	hits := vals["fpc_registry_hits_total"]
	misses := vals["fpc_registry_misses_total"]
	notFound := vals["fpc_registry_not_found_total"]
	evictions := vals["fpc_registry_evictions_total"]
	resident := vals["fpc_registry_resident_images"]

	// The exactness invariant: every /run and /call/{hash} that reached
	// the registry is exactly one of hit/miss/not-found.
	if hits+misses+notFound != float64(ops) {
		t.Errorf("hits(%v)+misses(%v)+notFound(%v) = %v, want %d ops",
			hits, misses, notFound, hits+misses+notFound, ops)
	}
	// Quiescent balance: every load either got evicted or is still
	// resident (the boot image is pinned and was adopted, not loaded).
	if misses != evictions+(resident-1) {
		t.Errorf("misses(%v) != evictions(%v) + resident-1(%v)", misses, evictions, resident-1)
	}
	if resident > 3 {
		t.Errorf("resident = %v, want <= CacheImages(3)", resident)
	}
	if evictions == 0 {
		t.Error("hammer never evicted — cache bound not exercised")
	}
	if misses < float64(programs) {
		t.Errorf("misses = %v, want >= %d distinct programs loaded", misses, programs)
	}

	// Quiescent reachability: a resident hash serves, an evicted one 404s.
	residentNow := map[string]bool{}
	for _, h := range s.Registry().Resident() {
		residentNow[h] = true
	}
	mu.Lock()
	all := append([]string(nil), hashes...)
	mu.Unlock()
	for _, h := range all {
		st, _ := callHash(t, ts, h, server.CallRequest{Args: []int64{10}})
		if residentNow[h] && st != http.StatusOK {
			t.Errorf("resident hash %s: status %d, want 200", h[:8], st)
		}
		if !residentNow[h] && st != http.StatusNotFound {
			t.Errorf("evicted hash %s: status %d, want 404 — no pool may serve after eviction", h[:8], st)
		}
	}
}
