package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	fpc "repro"
	"repro/internal/registry"
	"repro/internal/server"
)

// layer is a span's layer: one public call into one module on the request
// path. The traced run records a root span around Server.ServeHTTP, then
// replays the same request through these calls, each in a child span.
type layer uint8

const (
	lRequest    layer = iota // Server.ServeHTTP: the root span
	lCodec                   // encoding/json of the request and response types
	lLookup                  // Registry.Lookup, or SourceKey + SubmitSource hit
	lCompile                 // fpc.Compile
	lLink                    // fpc.Link
	lVerify                  // fpc.Verify
	lLoad                    // fpc.LoadImageVerified, which verifies again
	lWarm                    // fpc.NewPoolFromImage + Pool.Warm(1)
	lGet                     // Pool.Get
	lRun                     // Machine.Call
	lMetrics                 // Machine.Metrics
	lReset                   // Machine.Reset
	lPut                     // Pool.Put of the already reset machine
	lSubmitMiss              // Registry.SubmitSource miss on a scratch registry
	nLayers
)

var layerNames = [nLayers]string{
	"server.request", "server.codec", "registry.lookup", "lang.compile",
	"linker.link", "verify.verify", "core.load", "pool.warm", "pool.get",
	"core.run", "core.metrics", "core.reset", "pool.put", "registry.submit_miss",
}

// defaultBudget is server.Config's default per-request step budget, which
// every benchmark request runs under.
const defaultBudget = 5_000_000

// span is one timed call. Spans of one request share req; parent is the
// id of the request's root span (a span's id is its client's base plus its
// index in the client's buffer), or -1 for a root and for the set-up
// replays that belong to no request. A span whose probe flag is set
// measures a layer beside the replayed chain and is left out of the child
// sum.
type span struct {
	req    int64
	parent int64
	layer  layer
	probe  bool
	start  int64 // ns since the tracer's epoch
	dur    int64
}

// tracer holds the traced run's shared state; each client appends to its
// own span buffer.
type tracer struct {
	epoch   time.Time
	srv     *server.Server
	scratch *registry.Registry // the registry.submit_miss probe's registry
}

// coldBootNs separates the two outcomes of Pool.Get: popping a pooled
// machine takes well under a microsecond, booting one (allocating and
// copying the 128 KiB data space) takes tens.
const coldBootNs = 5000

func newTracer(srv *server.Server) *tracer {
	return &tracer{
		epoch:   time.Now(),
		srv:     srv,
		scratch: registry.New(registry.Config{Machine: machineConfig, Verify: true, MaxImages: cacheImages}),
	}
}

// maxSpansKept bounds each client's span buffer, which the spans file is
// written from; the ledger accounts every span as it is recorded, so a
// long traced phase does not hold millions of spans in memory.
const maxSpansKept = 100_000

// clientTrace is one client's span buffer, running ledger and replay
// counters.
type clientTrace struct {
	t      *tracer
	base   int64  // first span and request id of this client
	id     int64  // next request id
	spans  []span // the client's first maxSpansKept spans
	lg     ledger
	instrs uint64 // simulated instructions of replayed runs
	gets   int
	cold   int // replayed Gets that booted a machine
	resets int
	elided int // Resets of a write-free image after a run that wrote nothing
	probs  []string
}

func (ct *clientTrace) fail(format string, args ...any) {
	if len(ct.probs) < 10 {
		ct.probs = append(ct.probs, fmt.Sprintf(format, args...))
	}
}

// add records a span and returns its id.
func (ct *clientTrace) add(req, parent int64, l layer, probe bool, start time.Time, d time.Duration) int64 {
	id := ct.base + int64(ct.lg.spans)
	ct.lg.observe(l, parent, probe, int64(d))
	if len(ct.spans) < maxSpansKept {
		ct.spans = append(ct.spans, span{req: req, parent: parent, layer: l, probe: probe, start: int64(start.Sub(ct.t.epoch)), dur: int64(d)})
	}
	return id
}

// time runs f inside a child span of the request's root.
func (ct *clientTrace) time(req int64, root int64, l layer, f func()) {
	t0 := time.Now()
	f()
	ct.add(req, root, l, false, t0, time.Since(t0))
}

// request records the root span of one served request and replays it;
// cached is the response's registry-hit flag.
func (ct *clientTrace) request(s *spec, start time.Time, d time.Duration, cached bool) {
	req := ct.id
	ct.id++
	root := ct.add(req, -1, lRequest, false, start, d)
	if s.run {
		ct.replayRun(req, root, s, cached)
	} else {
		ct.replayCall(req, root, s)
	}
}

// replayCall replays a POST /call/{hash}: decode, registry lookup, then
// the pooled run and the response encode.
func (ct *clientTrace) replayCall(req int64, root int64, s *spec) {
	var body server.CallRequest
	var err error
	ct.time(req, root, lCodec, func() { err = json.Unmarshal(s.body, &body) })
	if err != nil {
		ct.fail("%s: decode: %v", s.prog.Name, err)
		return
	}
	var ent *registry.Entry
	var ok bool
	ct.time(req, root, lLookup, func() { ent, ok = ct.t.srv.Registry().Lookup(s.hash) })
	if !ok {
		ct.fail("%s: %s not resident", s.prog.Name, s.hash)
		return
	}
	ct.runAndEncode(req, root, s, ent.Pool(), ent.Hash(), true)
}

var errReplayMiss = errors.New("replayed hit missed")

// replayRun replays a POST /run the way the server served it: a
// source-memo hit, or for a first sighting (cached false) the whole load
// path.
func (ct *clientTrace) replayRun(req int64, root int64, s *spec, cached bool) {
	var body server.RunRequest
	var err error
	ct.time(req, root, lCodec, func() { err = json.Unmarshal(s.body, &body) })
	if err != nil {
		ct.fail("%s: decode: %v", s.prog.Name, err)
		return
	}
	if cached {
		var ent *registry.Entry
		var hit bool
		t0 := time.Now()
		ent, hit, err = ct.t.srv.Registry().SubmitSource(registry.SourceKey(body.Modules, body.Entry), func() (*fpc.Program, error) {
			return nil, errReplayMiss
		})
		if err == nil && hit {
			ct.add(req, root, lLookup, false, t0, time.Since(t0))
			ct.runAndEncode(req, root, s, ent.Pool(), ent.Hash(), true)
			return
		}
		if !errors.Is(err, errReplayMiss) {
			ct.fail("%s: replayed submit: %v", s.prog.Name, err)
			return
		}
		// Evicted since the server served it: replay it as a miss.
	}
	pool, err := ct.loadChain(req, root, body.Modules, s)
	if err != nil {
		ct.fail("%s: %v", s.prog.Name, err)
		return
	}
	ct.runAndEncode(req, root, s, pool, s.hash, false)
	ct.probeSubmit(req, root, s)
}

// loadChain replays the load path of a first sighting: compile, link,
// verify, load (predecode, fuse, thread build, boot snapshot) and warm.
func (ct *clientTrace) loadChain(req int64, root int64, sources map[string]string, s *spec) (*fpc.Pool, error) {
	var err error
	var mods []*fpc.Module
	ct.time(req, root, lCompile, func() { mods, err = fpc.Compile(sources) })
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	var prog *fpc.Program
	ct.time(req, root, lLink, func() {
		prog, _, err = fpc.Link(mods, s.prog.Module, s.prog.Proc, fpc.DefaultLinkOptions(machineConfig))
	})
	if err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	if prog.ContentHash() != s.hash {
		return nil, fmt.Errorf("replayed build hash %s, want %s", prog.ContentHash(), s.hash)
	}
	var rep *fpc.VerifyReport
	ct.time(req, root, lVerify, func() { rep = fpc.Verify(prog) })
	if !rep.Admitted() {
		return nil, fmt.Errorf("verifier rejected the program")
	}
	var img *fpc.LoadedImage
	ct.time(req, root, lLoad, func() { img, err = fpc.LoadImageVerified(prog, machineConfig) })
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	var pool *fpc.Pool
	ct.time(req, root, lWarm, func() {
		pool = fpc.NewPoolFromImage(img)
		err = pool.Warm(1)
	})
	return pool, err
}

// probeSubmit times the registry's whole miss path — build, verify, load,
// warm, admission — on the scratch registry, then evicts the entry so the
// next probe of the same program misses too.
func (ct *clientTrace) probeSubmit(req int64, root int64, s *spec) {
	var ent *registry.Entry
	var hit bool
	var err error
	t0 := time.Now()
	ent, hit, err = ct.t.scratch.SubmitSource(s.sourceKey(), func() (*fpc.Program, error) {
		return fpc.Build(s.sources, s.prog.Module, s.prog.Proc, fpc.DefaultLinkOptions(machineConfig))
	})
	d := time.Since(t0)
	if err != nil || hit {
		ct.fail("%s: scratch submit: hit %v err %v", s.prog.Name, hit, err)
		return
	}
	ct.add(req, root, lSubmitMiss, true, t0, d)
	ct.t.scratch.Evict(ent.Hash())
}

// runAndEncode replays the pooled run — Get, Call, Metrics, Reset, Put —
// checks it against the reference, and encodes the response.
func (ct *clientTrace) runAndEncode(req int64, root int64, s *spec, pool *fpc.Pool, hash string, cached bool) {
	var m *fpc.Machine
	var err error
	t0 := time.Now()
	m, err = pool.Get()
	d := time.Since(t0)
	ct.add(req, root, lGet, false, t0, d)
	if err != nil {
		ct.fail("%s: get: %v", s.prog.Name, err)
		return
	}
	ct.gets++
	if d > coldBootNs {
		ct.cold++
	}

	img := pool.Image()
	var res, out []fpc.Word
	ct.time(req, root, lRun, func() {
		m.SetRunBudget(defaultBudget)
		res, err = m.Call(img.Entry(), s.args...)
		out = append([]fpc.Word(nil), m.Output...)
	})
	var mt *fpc.Metrics
	ct.time(req, root, lMetrics, func() { mt = m.Metrics() })
	ct.resets++
	if img.ResetElide() && m.Mem().DirtyWords() == 0 {
		ct.elided++
	}
	ct.time(req, root, lReset, func() { m.Reset() })
	ct.time(req, root, lPut, func() { pool.Put(m) })
	ct.instrs += mt.Instructions

	if err != nil {
		ct.fail("%s: replayed run: %v", s.prog.Name, err)
		return
	}
	resp := server.RunResponse{
		Results: words16(res), Output: words16(out),
		Steps: mt.Instructions, Cycles: mt.Cycles, Refs: mt.ChargedRefs,
		Hash: hash, Cached: cached, Certified: img.Certified(),
	}
	ct.time(req, root, lCodec, func() { _, err = json.Marshal(&resp) })
	if err != nil {
		ct.fail("%s: encode: %v", s.prog.Name, err)
	}
	if !slices.Equal(resp.Results, s.results) || !slices.Equal(resp.Output, s.output) {
		ct.fail("%s: replayed results %v output %v, reference %v output %v", s.prog.Name, resp.Results, resp.Output, s.results, s.output)
	}
	if problem := s.checkCounts(mt.Instructions, mt.Cycles); problem != "" {
		ct.fail("%s: replayed run: %s", s.prog.Name, problem)
	}
}

// setupReplay replays the load path of every image set-up admitted, reps
// times, outside any request: on workloads whose timed phase never misses
// the registry, these are the lang, linker, verify and load samples.
func (ct *clientTrace) setupReplay(pl *plan, reps int) {
	for r := 0; r < reps; r++ {
		for _, s := range append([]*spec{pl.boot}, pl.admit...) {
			if _, err := ct.loadChain(-1, -1, s.sources, s); err != nil {
				ct.fail("set-up replay %s: %v", s.prog.Name, err)
				continue
			}
			ct.probeSubmit(-1, -1, s)
		}
	}
}

// ledger is the per-layer account of a traced run.
type ledger struct {
	requests int            // traced requests (root spans)
	spans    int            // spans recorded
	childNs  int64          // summed child durations, the duplicate verify taken out
	layerNs  [nLayers]int64 // summed span durations per layer, all spans
	layerN   [nLayers]int   // span counts per layer
	reqLayer [nLayers]int64 // summed child durations per layer, request spans only
}

// observe accounts one span.
func (lg *ledger) observe(l layer, parent int64, probe bool, dur int64) {
	lg.spans++
	lg.layerNs[l] += dur
	lg.layerN[l]++
	switch {
	case l == lRequest:
		lg.requests++
	case parent >= 0 && !probe:
		lg.reqLayer[l] += dur
	}
}

// account merges the clients' ledgers.
func account(cts []*clientTrace) *ledger {
	lg := &ledger{}
	for _, ct := range cts {
		lg.requests += ct.lg.requests
		lg.spans += ct.lg.spans
		for l := range lg.layerNs {
			lg.layerNs[l] += ct.lg.layerNs[l]
			lg.layerN[l] += ct.lg.layerN[l]
			lg.reqLayer[l] += ct.lg.reqLayer[l]
		}
	}
	for l := lCodec; l < nLayers; l++ {
		lg.childNs += lg.reqLayer[l]
	}
	// fpc.LoadImageVerified verifies again; the server's load path does
	// it once, so the chain's separate fpc.Verify is counted only as the
	// verify layer and taken out of load.
	lg.childNs -= lg.reqLayer[lVerify]
	return lg
}

// mean returns a layer's mean span duration in unit ns (1 for ns, 1e3
// for µs).
func (lg *ledger) mean(l layer, unit float64) float64 {
	if lg.layerN[l] == 0 {
		return 0
	}
	return float64(lg.layerNs[l]) / float64(lg.layerN[l]) / unit
}

// perRequestUs is a child layer's replayed time per traced request in
// µs; load counts without the verify it repeats.
func (lg *ledger) perRequestUs(l layer) float64 {
	ns := lg.reqLayer[l]
	if l == lLoad {
		ns -= lg.reqLayer[lVerify]
	}
	return float64(ns) / float64(max(lg.requests, 1)) / 1e3
}

// table renders the per-layer ledger against the untraced mean request
// time: per layer, its spans, mean span, replayed time per request and
// that time's share of the request.
func (lg *ledger) table(requestUs float64) []string {
	childUs := float64(lg.childNs) / float64(max(lg.requests, 1)) / 1e3
	lines := []string{
		fmt.Sprintf("ledger: %d traced requests, %d spans; untraced server.request %.3f us = replayed children %.3f us + server.self %.3f us",
			lg.requests, lg.spans, requestUs, childUs, requestUs-childUs),
		fmt.Sprintf("  %-22s %9s %12s %12s %10s", "layer", "spans", "mean_us", "us_per_req", "share"),
	}
	for l := lCodec; l < nLayers; l++ {
		if lg.layerN[l] == 0 {
			continue
		}
		perReq := lg.perRequestUs(l)
		lines = append(lines, fmt.Sprintf("  %-22s %9d %12.3f %12.3f %10.4f", layerNames[l], lg.layerN[l], lg.mean(l, 1e3), perReq, perReq/requestUs))
	}
	lines = append(lines, fmt.Sprintf("  %-22s %9s %12s %12.3f %10.4f", "server.self", "", "", requestUs-childUs, (requestUs-childUs)/requestUs))
	return lines
}

// runShare and buildShare are the loads the workloads were chosen for:
// replayed core.run, and lang + linker + verify + core.load, per request
// as shares of the untraced mean request time.
func (lg *ledger) runShare(requestUs float64) float64 {
	return lg.perRequestUs(lRun) / requestUs
}

func (lg *ledger) buildShare(requestUs float64) float64 {
	return (lg.perRequestUs(lCompile) + lg.perRequestUs(lLink) + lg.perRequestUs(lVerify) + lg.perRequestUs(lLoad)) / requestUs
}
