// Package server is the network serving layer over the program registry:
// an HTTP/JSON daemon that runs pooled procedure calls with per-request
// step budgets and wall-clock deadlines, bounded concurrency with a
// load-shedding wait queue, per-tenant admission shards, graceful drain,
// and a Prometheus-text /metrics endpoint with exact accounting.
//
// Programs enter the process through the registry (internal/registry):
// a /run submission is keyed by content hash, verified and predecoded
// exactly once, and kept resident behind a warm machine pool — repeat
// submissions (from any tenant) skip the whole load path and run on a
// pooled machine immediately. The isolation story is layered: the pool
// guarantees every request a machine reset to the shared image's boot
// snapshot; the image is immutable and every run checks its own stack
// pushes and pops; and per-tenant quotas (in-flight, queue, step rate)
// make sure one tenant's overload sheds that tenant only.
//
// Endpoints:
//
//	POST /call         {"module":"m","proc":"p","args":[1,2],"budget":100000}
//	POST /run          {"modules":{"m":"module m; ..."},"entry":"m.main","args":[3]}
//	POST /call/{hash}  {"args":[4]} — invoke a cached image by content hash
//	POST /session      start a parkable run (see session.go)
//	POST /session/{id}/resume  resume a parked session
//	GET  /healthz      "ok" while serving, 503 "draining" during drain
//	GET  /metrics      Prometheus text exposition
//
// Tenancy is declared with the X-Tenant request header; absent, the
// request belongs to the "default" tenant.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	fpc "repro"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Config parameterizes a Server. The zero value of every field selects a
// sensible default (see New).
type Config struct {
	// MaxInFlight bounds concurrently running machines. Default: GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for a run slot; beyond it requests
	// are shed immediately with 429. Default: 4×MaxInFlight.
	MaxQueue int
	// QueueTimeout bounds how long a request may wait for a run slot
	// before being shed with 503. Default: 1s.
	QueueTimeout time.Duration
	// DefaultBudget is the per-request step budget when the request names
	// none. Default: 5,000,000 instructions.
	DefaultBudget uint64
	// MaxBudget caps client-requested budgets (larger requests are
	// clamped). Default: 50,000,000 instructions.
	MaxBudget uint64
	// RequestTimeout is the per-request wall-clock deadline, counted from
	// the start of the run: the machine's cancel probe compares it every
	// 1024 instructions and cuts the run (504, the error ending in
	// "context deadline exceeded") once it has passed. Default: 10s.
	RequestTimeout time.Duration
	// Verify enables verify-at-admission: every submitted program passes
	// the link-time verifier before a machine (or any step budget) is
	// committed to it. Rejections are 400s carrying the verifier's
	// diagnostics, counted by fpcd_verify_rejected_total.
	Verify bool

	// CacheBudget bounds the registry's resident cached images in bytes
	// (image footprint + warm machines); the LRU evicts beyond it.
	// Default: 256 MiB.
	CacheBudget int64
	// CacheImages caps resident cached images regardless of bytes.
	// Default: 0 = unlimited (the byte budget still applies).
	CacheImages int
	// WarmMachines pre-boots this many machines per newly cached image.
	// Default: 1; negative disables warming.
	WarmMachines int

	// TenantMaxInFlight caps one tenant's concurrently admitted requests
	// (queued-for-slot + running). 0 disables per-tenant sharding — every
	// request then competes only in the global queue.
	TenantMaxInFlight int
	// TenantMaxQueue bounds one tenant's requests waiting for a tenant
	// token; beyond it that tenant's requests are shed with 429 while
	// other tenants are untouched. Default: 2×TenantMaxInFlight.
	TenantMaxQueue int
	// TenantStepRate refills each tenant's step-quota bucket at this many
	// simulated instructions per second; a tenant with an empty bucket is
	// shed with 429 until it refills. 0 = unlimited.
	TenantStepRate uint64
	// TenantStepBurst caps the bucket. Default: 1 second of TenantStepRate.
	TenantStepBurst uint64
	// MaxTenants bounds distinct tenant states tracked (the X-Tenant
	// header is client-controlled; unbounded cardinality would be a
	// memory leak). Tenants beyond the cap share one overflow shard.
	// Default: 4096.
	MaxTenants int

	// SessionMax caps parked sessions; the LRU evicts beyond it.
	// Default: 1024.
	SessionMax int
	// SessionPerTenant caps one tenant's parked sessions (further parks
	// by that tenant get 429). 0 = no per-tenant cap.
	SessionPerTenant int
	// SessionBytes bounds the total encoded continuation bytes parked;
	// the LRU evicts beyond it. 0 = unlimited.
	SessionBytes int64
	// SessionTTL expires parked sessions not resumed in time. Default: 5m.
	SessionTTL time.Duration
}

func (c *Config) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.DefaultBudget == 0 {
		c.DefaultBudget = 5_000_000
	}
	if c.MaxBudget == 0 {
		c.MaxBudget = 50_000_000
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.TenantMaxInFlight > 0 && c.TenantMaxQueue <= 0 {
		c.TenantMaxQueue = 2 * c.TenantMaxInFlight
	}
	if c.TenantStepRate > 0 && c.TenantStepBurst == 0 {
		c.TenantStepBurst = c.TenantStepRate
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 4096
	}
}

// CallRequest is the /call and /call/{hash} request body. Args are 16-bit
// machine words; negative values are accepted as two's complement. For
// /call/{hash}, Module/Proc are optional — absent, the cached image's
// entry procedure runs.
type CallRequest struct {
	Module string  `json:"module,omitempty"`
	Proc   string  `json:"proc,omitempty"`
	Args   []int64 `json:"args,omitempty"`
	// Budget is this request's step budget; 0 uses the server default.
	Budget uint64 `json:"budget,omitempty"`
}

// CallResponse is the /call response body. Steps/Cycles/Refs account the
// work this request's machine run actually did — present on failures too
// (a budget-cut run did real work), so that summing them across responses
// reproduces the /metrics pool aggregate exactly.
type CallResponse struct {
	Results []uint16 `json:"results"`
	Output  []uint16 `json:"output,omitempty"`
	Steps   uint64   `json:"steps"`
	Cycles  uint64   `json:"cycles"`
	Refs    uint64   `json:"refs"`
	Error   string   `json:"error,omitempty"`
}

// Server serves pooled procedure calls over HTTP. Create with New, serve
// it as an http.Handler, stop with Drain.
type Server struct {
	cfg  Config
	pool *fpc.Pool // the boot program's pool (pinned in the registry)
	reg  *registry.Registry
	boot *registry.Entry

	// slots is the in-flight semaphore: holding a token is the right to
	// run a machine.
	slots chan struct{}

	mu         sync.Mutex
	draining   bool
	drained    chan struct{} // closed when draining && active == 0
	active     int           // requests admitted and not yet finished
	queueDepth int
	inFlight   int
	c          counters
	tenants    map[string]*tenantState
	latency    stats.Histogram // microseconds per completed machine run
}

// counters is the server-side metric set (the pool and registry keep
// their own).
type counters struct {
	accepted       uint64 // requests that got a run slot and ran
	completed      uint64 // 200s
	budgetExceeded uint64 // 504s (step budget or wall deadline)
	runErrors      uint64 // 500s (trap, stack fault, ...)
	badRequests    uint64 // 400s
	notFound       uint64 // 404s (/call/{hash} of a non-resident image)
	shedQueueFull  uint64 // 429s from the global queue
	shedQueueWait  uint64 // 503s from global queue-timeout
	shedTenant     uint64 // 429/503s from a tenant shard (that tenant only)
	shedDraining   uint64 // 503s during drain
	canceledByPeer uint64 // client went away while queued
	stepsServed    uint64 // sum of per-request Steps
	cyclesServed   uint64 // sum of per-request Cycles
	verifyRejected uint64 // /run programs the verifier rejected (400, zero steps)
}

// New builds a Server over pool with cfg (zero fields defaulted). The
// pool's image becomes the registry's pinned boot entry: it is addressable
// by content hash like any cached submission but never evicted.
func New(pool *fpc.Pool, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		pool:    pool,
		slots:   make(chan struct{}, cfg.MaxInFlight),
		drained: make(chan struct{}),
		tenants: map[string]*tenantState{},
	}
	s.reg = registry.New(registry.Config{
		Machine:      pool.Image().Config(),
		Verify:       cfg.Verify,
		MemoryBudget: cfg.CacheBudget,
		MaxImages:    cfg.CacheImages,
		WarmMachines: cfg.WarmMachines,
		Sessions: snapshot.TableConfig{
			MaxSessions:  cfg.SessionMax,
			MaxPerTenant: cfg.SessionPerTenant,
			MaxBytes:     cfg.SessionBytes,
			TTL:          cfg.SessionTTL,
		},
	})
	s.boot = s.reg.AdoptPinned(pool.Image(), pool)
	return s
}

// Pool returns the boot program's pool.
func (s *Server) Pool() *fpc.Pool { return s.pool }

// Registry returns the server's program registry.
func (s *Server) Registry() *registry.Registry { return s.reg }

// BootHash returns the content hash of the boot program — the hash
// /call/{hash} serves without any submission.
func (s *Server) BootHash() string { return s.boot.Hash() }

// ServeHTTP routes a request to its endpoint by exact path, or by prefix
// for the two endpoints that carry an id in the path. Any other path is a
// 404; a path is never cleaned or redirected.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch p := r.URL.Path; {
	case p == "/call":
		s.handleCall(w, r)
	case strings.HasPrefix(p, "/call/"):
		s.handleCallHash(w, r)
	case p == "/run":
		s.handleRun(w, r)
	case p == "/session":
		s.handleSession(w, r)
	case strings.HasPrefix(p, "/session/"):
		s.handleSessionResume(w, r)
	case p == "/healthz":
		s.handleHealthz(w, r)
	case p == "/metrics":
		s.handleMetrics(w, r)
	default:
		http.NotFound(w, r)
	}
}

// enter admits a request: it fails once draining has begun, and otherwise
// registers the request so Drain waits for it.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.c.shedDraining++
		return false
	}
	s.active++
	return true
}

// leave retires an admitted request, releasing Drain when the last one
// finishes.
func (s *Server) leave() {
	s.mu.Lock()
	s.active--
	if s.draining && s.active == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
	s.mu.Unlock()
}

// Drain begins a graceful shutdown: new requests are rejected with 503
// while every already-admitted request (queued or running) is allowed to
// finish. It returns when the server is idle or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.active == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// runOnPool is the admitted-bounded-run path the call-shaped endpoints go
// through: the standard admission envelope around one budgeted pooled
// call. Shed responses (429/503) are written inside runAdmitted; on ok the
// caller renders the response body from cr and status. cr is non-nil
// whenever a machine actually ran, failures included.
func (s *Server) runOnPool(w http.ResponseWriter, r *http.Request, tn *tenantState, pool *fpc.Pool, desc fpc.Word, budget uint64, args []fpc.Word) (cr *fpc.CallResult, status int, runErr error, ok bool) {
	return s.runAdmitted(w, r, tn, func(ctx context.Context, deadline time.Time) (*fpc.CallResult, error) {
		return pool.CallContext(ctx, desc, budget, deadline, args...)
	})
}

// runAdmitted is the one admission envelope every machine-running endpoint
// goes through: tenant-shard admission, a global queue position, a run
// slot, one machine run driven by the run closure, and the exact
// accounting of whatever happened — global and per-tenant. The closure
// gets the request's context and its deadline, RequestTimeout after the
// run starts, and hands both to the machine, whose cancel probe checks
// them; no timer is armed. It returns the run's artifacts (non-nil
// whenever a machine actually ran, failures included) and its error; an
// error wrapping ErrMaxSteps/ErrCanceled accounts as budget-exceeded
// (504), any other as a run error (500). A closure that parks a run
// instead of failing it returns a nil error — the park then accounts as
// completed.
func (s *Server) runAdmitted(w http.ResponseWriter, r *http.Request, tn *tenantState, run func(ctx context.Context, deadline time.Time) (*fpc.CallResult, error)) (cr *fpc.CallResult, status int, runErr error, ok bool) {
	releaseTenant, shedStatus, reason := s.admitTenant(r, tn)
	if releaseTenant == nil {
		if shedStatus != 0 {
			http.Error(w, reason, shedStatus)
		}
		return nil, shedStatus, nil, false
	}
	defer releaseTenant()

	if !s.enqueue() {
		s.countShed(&s.c.shedQueueFull)
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return nil, http.StatusTooManyRequests, nil, false
	}
	select {
	case s.slots <- struct{}{}:
	default:
		if got, timedOut := s.await(r, s.slots); !got {
			s.dequeue(false)
			if !timedOut {
				s.countShed(&s.c.canceledByPeer)
				return nil, 0, nil, false
			}
			s.countShed(&s.c.shedQueueWait)
			http.Error(w, "queue wait timed out", http.StatusServiceUnavailable)
			return nil, http.StatusServiceUnavailable, nil, false
		}
	}
	s.dequeue(true)
	defer func() {
		<-s.slots
		s.mu.Lock()
		s.inFlight--
		s.mu.Unlock()
	}()

	start := time.Now()
	cr, runErr = run(r.Context(), start.Add(s.cfg.RequestTimeout))
	elapsed := time.Since(start)

	var steps, cycles uint64
	if cr != nil {
		steps, cycles = cr.Steps, cr.Cycles
	}
	status = http.StatusOK
	s.mu.Lock()
	s.c.accepted++
	tn.c.accepted++
	s.latency.Observe(int(elapsed.Microseconds()))
	s.c.stepsServed += steps
	s.c.cyclesServed += cycles
	tn.c.steps += steps
	if s.cfg.TenantStepRate > 0 {
		tn.bucket -= int64(steps)
	}
	switch {
	case runErr == nil:
		s.c.completed++
		tn.c.completed++
	case errors.Is(runErr, core.ErrMaxSteps), errors.Is(runErr, core.ErrCanceled):
		s.c.budgetExceeded++
		status = http.StatusGatewayTimeout
	default:
		s.c.runErrors++
		status = http.StatusInternalServerError
	}
	s.mu.Unlock()
	return cr, status, runErr, true
}

func (s *Server) handleCall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.enter() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.leave()

	var req CallRequest
	if !s.decodeBody(w, r, &req, false) {
		return
	}
	desc, args, budget, errMsg := s.admitRequest(&req)
	if errMsg != "" {
		s.reject(w, http.StatusBadRequest, errMsg)
		return
	}

	cr, status, runErr, ok := s.runOnPool(w, r, s.tenant(tenantKey(r)), s.pool, desc, budget, args)
	if !ok {
		return
	}
	resp := CallResponse{}
	fillCall(&resp, cr, runErr)
	writeJSON(w, status, &resp)
}

// fillCall puts a run's artifacts into a /call response. Results has no
// omitempty, so a run that left no results still prints [] rather than
// null.
func fillCall(resp *CallResponse, cr *fpc.CallResult, runErr error) {
	if cr != nil {
		resp.Results, resp.Output = cr.Results, cr.Output
		if resp.Results == nil {
			resp.Results = []uint16{}
		}
		resp.Steps, resp.Cycles, resp.Refs = cr.Steps, cr.Cycles, cr.Refs
	}
	if runErr != nil {
		resp.Error = runErr.Error()
	}
}

// admitRequest validates a request and resolves it against the boot
// image: the procedure descriptor, the converted argument words, and the
// clamped effective budget.
func (s *Server) admitRequest(req *CallRequest) (desc fpc.Word, args []fpc.Word, budget uint64, errMsg string) {
	if req.Module == "" || req.Proc == "" {
		return 0, nil, 0, "module and proc are required"
	}
	desc, err := s.pool.Image().Program().FindProc(req.Module, req.Proc)
	if err != nil {
		return 0, nil, 0, err.Error()
	}
	args, errMsg = convertArgs(req.Args)
	if errMsg != "" {
		return 0, nil, 0, errMsg
	}
	return desc, args, s.clampBudget(req.Budget), ""
}

// await puts a token into sem — a run slot or a tenant token — waiting at
// most QueueTimeout. Callers reach it only when no token was free at once,
// so a request that never waits arms no timer; the timer is stopped on
// every exit, so none outlives the wait. got reports a token taken;
// otherwise timedOut tells a timeout from the client going away.
func (s *Server) await(r *http.Request, sem chan struct{}) (got, timedOut bool) {
	t := time.NewTimer(s.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case sem <- struct{}{}:
		return true, false
	case <-t.C:
		return false, true
	case <-r.Context().Done():
		return false, false
	}
}

// enqueue reserves a queue position, refusing when the queue is full.
func (s *Server) enqueue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queueDepth >= s.cfg.MaxQueue {
		return false
	}
	s.queueDepth++
	return true
}

// dequeue gives the queue position back; gotSlot moves the request into
// the in-flight account.
func (s *Server) dequeue(gotSlot bool) {
	s.mu.Lock()
	s.queueDepth--
	if gotSlot {
		s.inFlight++
	}
	s.mu.Unlock()
}

func (s *Server) countShed(c *uint64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

func (s *Server) reject(w http.ResponseWriter, status int, msg string) {
	s.countShed(&s.c.badRequests)
	http.Error(w, msg, status)
}

// maxBodyBytes caps every request body before it is decoded. The largest
// generated program source over seeds 0–9999 is under 4 KiB, so 1 MiB
// admits any real submission while bounding what a body can cost before
// admission.
const maxBodyBytes = 1 << 20

// decodeBody decodes the JSON request body into v through the size cap. On
// failure it answers the request itself — 413 past the cap, 400 for a
// malformed body — and returns false. An empty body is accepted only when
// optional.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, optional bool) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil || optional && errors.Is(err, io.EOF):
		return true
	case errors.As(err, &tooBig):
		s.reject(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
	default:
		s.reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
