package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	fpc "repro"
	"repro/internal/server"
)

// setups is how many times each run builds its server; setup_s is the
// median, and the last server built serves the run.
const setups = 11

// newServer is the timed set-up: fpcd's start-up (build and verify the
// boot program, construct the server) plus admitting every image the
// timed phase uses and, for submit-churn, filling the registry to its
// cap. It returns the server and the wall time it took.
func newServer(pl *plan) (*server.Server, time.Duration, error) {
	start := time.Now()
	opts := fpc.DefaultLinkOptions(machineConfig)
	prog, _, err := pl.boot.prog.Build(opts)
	if err != nil {
		return nil, 0, err
	}
	img, err := fpc.LoadImageVerified(prog, machineConfig)
	if err != nil {
		return nil, 0, err
	}
	srv := server.New(fpc.NewPoolFromImage(img), server.Config{Verify: true, CacheImages: cacheImages})
	reg := srv.Registry()
	for _, s := range pl.admit {
		prog, _, err := s.prog.Build(opts)
		if err != nil {
			return nil, 0, err
		}
		if _, _, err := reg.Submit(prog); err != nil {
			return nil, 0, fmt.Errorf("admit %s: %w", s.prog.Name, err)
		}
	}
	for _, s := range pl.prefill {
		_, _, err := reg.SubmitSource(s.sourceKey(), func() (*fpc.Program, error) {
			return fpc.Build(s.sources, s.prog.Module, s.prog.Proc, opts)
		})
		if err != nil {
			return nil, 0, fmt.Errorf("pre-fill %s: %w", s.prog.Name, err)
		}
	}
	elapsed := time.Since(start)

	if srv.BootHash() != pl.boot.hash {
		return nil, 0, fmt.Errorf("boot hash %s, want %s", srv.BootHash(), pl.boot.hash)
	}
	for _, s := range pl.specs {
		if !s.run {
			if _, ok := reg.Lookup(s.hash); !ok {
				return nil, 0, fmt.Errorf("%s (%s) not resident after set-up", s.prog.Name, s.hash)
			}
		}
	}
	return srv, elapsed, nil
}

// setUp builds the run's server `setups` times, each from a collected
// heap, and returns the last one with every set-up time in seconds.
func setUp(pl *plan) (*server.Server, []float64, error) {
	var srv *server.Server
	var times []float64
	for i := 0; i < setups; i++ {
		srv = nil
		runtime.GC()
		s, d, err := newServer(pl)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		srv = s
		times = append(times, d.Seconds())
	}
	return srv, times, nil
}

// recorder is a reusable in-memory http.ResponseWriter.
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

// requestBody is a reusable request body over a pre-encoded byte slice.
type requestBody struct{ bytes.Reader }

func (*requestBody) Close() error { return nil }

// client is one closed-loop client: it sends its next request only after
// the previous reply.
type client struct {
	id   int
	next func() int
	rec  recorder
	body requestBody
	st   phaseStats
	// cached and steps are the last response's registry-hit flag (always
	// true for /call/{hash}) and simulated instructions.
	cached bool
	steps  uint64
}

// phaseStats accumulates one client's requests in one phase.
type phaseStats struct {
	attempted, ok int
	problems      []string
	reqNs         int64 // summed ServeHTTP time
	steps         uint64
	certSteps     uint64
	hits, misses  int // /run responses by their cached flag

	// start opens the phase's first window; windows accounts the requests
	// by the window they completed in.
	start   time.Time
	windows []windowStats
}

// window is the length of the windows the timed phase is cut into.
const window = 500 * time.Millisecond

// windowStats is one window's account of the requests that completed in
// it. Latencies go into a fixed-size histogram, so the benchmark's own
// memory does not grow with the requests it sends and stays out of the
// heap it measures.
type windowStats struct {
	ok     int
	steps  uint64
	failed int
	hist   []uint32 // ServeHTTP times of correct responses, by latBucket
}

// latSubBits sets the histogram's resolution: 2^latSubBits buckets per
// power of two, so a latency is kept to within 1/128 of itself.
const latSubBits = 7

// latBucket maps a time in ns to its histogram bucket.
func latBucket(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 1<<latSubBits {
		return int(v)
	}
	e := bits.Len64(v) - latSubBits - 1
	return (e+1)<<latSubBits + int(v>>e) - 1<<latSubBits
}

// latRange is the lowest value and the width in ns of bucket b.
func latRange(b int) (low, width float64) {
	if b < 1<<latSubBits {
		return float64(b), 1
	}
	e := b>>latSubBits - 1
	return float64(uint64(b&(1<<latSubBits-1)+1<<latSubBits) << e), float64(uint64(1) << e)
}

// latBuckets covers latencies up to 2^40 ns, far past any request deadline.
var latBuckets = latBucket(1<<40) + 1

// okPerWindow lists the correct responses of each window.
func (st *phaseStats) okPerWindow() []int {
	out := make([]int, len(st.windows))
	for i, ws := range st.windows {
		out[i] = ws.ok
	}
	return out
}

// window returns the stats of window w, growing the list as needed.
func (st *phaseStats) window(w int) *windowStats {
	for len(st.windows) <= w {
		st.windows = append(st.windows, windowStats{})
	}
	return &st.windows[w]
}

func (st *phaseStats) fail(format string, args ...any) {
	if len(st.problems) < 10 {
		st.problems = append(st.problems, fmt.Sprintf(format, args...))
	}
}

// serve sends one request, checks the response against the reference, and
// accounts it. It returns the ServeHTTP start and duration.
func (c *client) serve(h http.Handler, s *spec) (time.Time, time.Duration) {
	req := *s.tmpl
	c.body.Reset(s.body)
	req.Body = &c.body
	req.ContentLength = int64(len(s.body))
	c.rec.reset()

	t0 := time.Now()
	h.ServeHTTP(&c.rec, &req)
	d := time.Since(t0)

	st := &c.st
	st.attempted++
	st.reqNs += int64(d)
	ws := st.window(int(t0.Add(d).Sub(st.start) / window))
	if problem := c.check(s); problem != "" {
		st.fail("%s %s: %s", s.path, s.prog.Name, problem)
		ws.failed++
		return t0, d
	}
	st.ok++
	ws.ok++
	ws.steps += c.steps
	if ws.hist == nil {
		ws.hist = make([]uint32, latBuckets)
	}
	ws.hist[latBucket(int64(d))]++
	return t0, d
}

// check compares the recorded response with the reference answer and the
// spec's exact simulated counts; it returns "" when correct.
func (c *client) check(s *spec) string {
	if c.rec.status != http.StatusOK {
		return fmt.Sprintf("status %d: %.200s", c.rec.status, c.rec.body.String())
	}
	var resp server.RunResponse
	if err := json.Unmarshal(c.rec.body.Bytes(), &resp); err != nil {
		return "bad response body: " + err.Error()
	}
	if resp.Error != "" {
		return "error " + resp.Error
	}
	if !slices.Equal(resp.Results, s.results) || !slices.Equal(resp.Output, s.output) {
		return fmt.Sprintf("results %v output %v, reference %v output %v", resp.Results, resp.Output, s.results, s.output)
	}
	if s.run && resp.Hash != s.hash {
		return fmt.Sprintf("hash %s, want %s", resp.Hash, s.hash)
	}
	if problem := s.checkCounts(resp.Steps, resp.Cycles); problem != "" {
		return problem
	}
	c.cached, c.steps = resp.Cached || !s.run, resp.Steps
	st := &c.st
	st.steps += resp.Steps
	if resp.Certified {
		st.certSteps += resp.Steps
	}
	if s.run {
		if resp.Cached {
			st.hits++
		} else {
			st.misses++
		}
	}
	return ""
}

// checkCounts records the spec's simulated counts on first sight and
// requires every later run to repeat them exactly.
func (s *spec) checkCounts(steps, cycles uint64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.known {
		s.known, s.steps, s.cycles = true, steps, cycles
		return ""
	}
	if steps != s.steps || cycles != s.cycles {
		return fmt.Sprintf("simulated counts %d/%d differ from the first run's %d/%d", steps, cycles, s.steps, s.cycles)
	}
	return ""
}

// drive runs every client concurrently from start: each sends requests
// until it has sent n (n > 0) or until the deadline passes. perRequest,
// when non-nil, runs after each reply on the client's goroutine (the
// traced replay).
func drive(h http.Handler, pl *plan, cs []*client, n int, start, deadline time.Time, perRequest func(c *client, s *spec, t0 time.Time, d time.Duration)) time.Duration {
	var wg sync.WaitGroup
	for _, c := range cs {
		c.st.start = start
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; n <= 0 || i < n; i++ {
				if n <= 0 && !time.Now().Before(deadline) {
					return
				}
				s := pl.specs[c.next()]
				t0, d := c.serve(h, s)
				if perRequest != nil {
					perRequest(c, s, t0, d)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// merged folds the clients' phase stats into one and clears them for the
// next phase.
func merged(cs []*client) phaseStats {
	var all phaseStats
	for _, c := range cs {
		st := &c.st
		all.attempted += st.attempted
		all.ok += st.ok
		all.problems = append(all.problems, st.problems...)
		all.reqNs += st.reqNs
		all.steps += st.steps
		all.certSteps += st.certSteps
		all.hits += st.hits
		all.misses += st.misses
		for w, ws := range st.windows {
			aw := all.window(w)
			aw.ok += ws.ok
			aw.steps += ws.steps
			aw.failed += ws.failed
			if ws.hist != nil {
				if aw.hist == nil {
					aw.hist = make([]uint32, latBuckets)
				}
				for b, n := range ws.hist {
					aw.hist[b] += n
				}
			}
		}
		c.st = phaseStats{}
	}
	return all
}

// runtimeSample is a snapshot of the runtime/metrics the gc layer reads.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// sampler records, for every full window of a phase, the process's CPU
// time and the peak Go heap in use.
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	cpu   []time.Duration
	peaks []float64
}

func startSampler(start time.Time) *sampler {
	h := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		cur, lastCPU := 0, processCPU()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if k := int(time.Since(start) / window); k > cur {
				// A sampler held off for longer than a window splits the
				// CPU it missed evenly over the windows it missed.
				cpu := processCPU()
				for i := cur; i < k; i++ {
					h.cpu = append(h.cpu, (cpu-lastCPU)/time.Duration(k-cur))
					h.peaks = append(h.peaks, float64(peak))
				}
				cur, lastCPU, peak = k, cpu, 0
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling.
func (h *sampler) Stop() {
	close(h.stop)
	<-h.done
}

// cleanShare is the share of the clients' CPUs the process must have run
// on in a window for the window to count. Uncontended windows run at
// 0.92-0.99.
const cleanShare = 0.9

// cleanWindows picks the windows the timed metrics count: the half of
// the windows in which the process ran on the largest share of its
// clients' CPUs, and of those only the ones at cleanShare or above. The
// host's other tenants take CPU in stretches of seconds; a request they
// preempt waits milliseconds, which moves tail latency and throughput
// although the program did not change. When fewer than a quarter of the
// windows qualify the whole phase was contended, and every window counts.
func cleanWindows(cpu []time.Duration) (clean []bool, n int, contended bool) {
	threshold := cleanShare * clients * window.Seconds()
	if len(cpu) > 0 {
		sorted := slices.Clone(cpu)
		slices.Sort(sorted)
		threshold = max(threshold, sorted[len(sorted)/2].Seconds())
	}
	clean = make([]bool, len(cpu))
	for i, c := range cpu {
		clean[i] = c.Seconds() >= threshold
		if clean[i] {
			n++
		}
	}
	if 4*n < len(cpu) {
		for i := range clean {
			clean[i] = true
		}
		return clean, len(cpu), true
	}
	return clean, n, false
}

// timedMetrics are the end-to-end timings of a phase over its clean windows.
type timedMetrics struct {
	rps, p50us, p99us, nsPerInstr, heapMB float64
	latencies                             int
}

func (st *phaseStats) overWindows(clean []bool, n int, peaks []float64) timedMetrics {
	var m timedMetrics
	var ok, failed int
	var steps uint64
	var heap []float64
	hist := make([]uint64, latBuckets)
	for w, c := range clean {
		if !c {
			continue
		}
		heap = append(heap, peaks[w])
		if w >= len(st.windows) {
			continue
		}
		ws := &st.windows[w]
		ok += ws.ok
		failed += ws.failed
		steps += ws.steps
		for b, k := range ws.hist {
			hist[b] += uint64(k)
		}
	}
	secs := float64(n) * window.Seconds()
	m.rps = float64(ok) / secs
	m.nsPerInstr = secs * 1e9 / float64(max(steps, 1))
	m.heapMB = median(heap) / (1 << 20)
	m.latencies = ok + failed
	m.p50us = histPercentile(hist, failed, 50) / 1e3
	m.p99us = histPercentile(hist, failed, 99) / 1e3
	return m
}

// histPercentile returns the p-th percentile (nearest rank) in ns of the
// histogram's latencies plus `failed` requests counted as +Inf, which
// reads as the largest float. Within its bucket the rank is placed
// linearly between the bucket's bounds.
func histPercentile(hist []uint64, failed int, p float64) float64 {
	var total uint64
	for _, k := range hist {
		total += k
	}
	rank := max(uint64(math.Ceil(p/100*float64(total+uint64(failed)))), 1)
	var seen uint64
	for b, k := range hist {
		if k > 0 && seen+k >= rank {
			low, width := latRange(b)
			return low + width*(float64(rank-seen)-0.5)/float64(k)
		}
		seen += k
	}
	return math.MaxFloat64
}

// scrapeShed reads the shed and refused requests from GET /metrics.
func scrapeShed(h http.Handler) (float64, error) {
	var rec recorder
	rec.reset()
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	h.ServeHTTP(&rec, req)
	if rec.status != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d", rec.status)
	}
	var shed float64
	for _, line := range bytes.Split(rec.body.Bytes(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("fpc_server_rejected_total{")) {
			var v float64
			if _, err := fmt.Sscan(string(line[bytes.LastIndexByte(line, ' ')+1:]), &v); err != nil {
				return 0, fmt.Errorf("GET /metrics: %q: %w", line, err)
			}
			shed += v
		}
	}
	return shed, nil
}
