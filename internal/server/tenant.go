package server

import (
	"net/http"
	"time"
)

// Per-tenant admission sharding. The global queue and slot semaphore
// bound the process; the tenant shard bounds each tenant's share of it,
// so one tenant's overload turns into 429s for that tenant while every
// other tenant's latency and error rate are untouched.
//
// A tenant holds its token from admission until its run finishes —
// through the global queue wait too — so a tenant can occupy at most
// TenantMaxInFlight global queue positions and run slots combined, plus
// TenantMaxQueue requests waiting for a tenant token. Provision
// MaxInFlight above the per-tenant cap and no single tenant can starve
// the rest of the slot pool.
//
// The step-rate quota is a token bucket of simulated instructions:
// admission requires a non-empty bucket, and the run's actual steps are
// debited afterwards (a run may overdraw the bucket once; the debt
// delays that tenant's next admission, not anyone else's).

// overflowTenant is the shared shard for tenants beyond MaxTenants: the
// X-Tenant header is client-controlled, so distinct states are bounded
// and the excess degrades to sharing one shard rather than growing the
// map without bound.
const overflowTenant = "~overflow"

// tenantState is one tenant's admission shard.
type tenantState struct {
	name string
	// sem holds the tenant's in-flight tokens; nil when per-tenant
	// sharding is disabled.
	sem chan struct{}

	// Guarded by Server.mu.
	queued     int   // requests waiting for a tenant token
	bucket     int64 // step-quota tokens; may go negative on overdraft
	lastRefill time.Time
	c          tenantCounters
}

// tenantCounters is the per-tenant metric set exposed with a
// tenant="..." label in /metrics.
type tenantCounters struct {
	accepted      uint64 // requests that got a slot and ran
	completed     uint64 // 200s
	steps         uint64 // simulated instructions served to this tenant
	shedQueueFull uint64 // 429: tenant token queue full
	shedQueueWait uint64 // 503: tenant token wait timed out
	shedStepQuota uint64 // 429: step bucket empty
}

// tenantKey extracts the tenant identity of a request.
func tenantKey(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// tenant returns (creating on first sight) the shard for name, degrading
// to the shared overflow shard at the cardinality cap.
func (s *Server) tenant(name string) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		name = overflowTenant
		if t, ok := s.tenants[name]; ok {
			return t
		}
	}
	t := &tenantState{
		name:       name,
		bucket:     int64(s.cfg.TenantStepBurst),
		lastRefill: time.Now(),
	}
	if s.cfg.TenantMaxInFlight > 0 {
		t.sem = make(chan struct{}, s.cfg.TenantMaxInFlight)
	}
	s.tenants[name] = t
	return t
}

// admitTenant passes a request through its tenant's shard: the step-rate
// bucket, then a tenant token (waiting in the bounded tenant queue when
// none is free). On success the returned release puts the token back; on
// shed, release is nil and status/reason say how to answer — status 0
// means the client went away and nothing should be written.
func (s *Server) admitTenant(r *http.Request, t *tenantState) (release func(), status int, reason string) {
	if s.cfg.TenantStepRate > 0 && !s.takeStepQuota(t) {
		return nil, http.StatusTooManyRequests, "tenant step quota exhausted"
	}
	if t.sem == nil {
		return func() {}, 0, ""
	}
	select {
	case t.sem <- struct{}{}:
		return func() { <-t.sem }, 0, ""
	default:
	}

	// No token free: wait in the tenant's own bounded queue. Only this
	// tenant's requests ever wait here, so the shed below is theirs alone.
	s.mu.Lock()
	if t.queued >= s.cfg.TenantMaxQueue {
		t.c.shedQueueFull++
		s.c.shedTenant++
		s.mu.Unlock()
		return nil, http.StatusTooManyRequests, "tenant queue full"
	}
	t.queued++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		t.queued--
		s.mu.Unlock()
	}()

	if got, timedOut := s.await(r, t.sem); !got {
		if !timedOut {
			s.countShed(&s.c.canceledByPeer)
			return nil, 0, ""
		}
		s.mu.Lock()
		t.c.shedQueueWait++
		s.c.shedTenant++
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, "tenant queue wait timed out"
	}
	return func() { <-t.sem }, 0, ""
}

// takeStepQuota refills the tenant's bucket at TenantStepRate and reports
// whether the tenant may run. The actual debit happens after the run,
// with the steps it really executed.
func (s *Server) takeStepQuota(t *tenantState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if el := now.Sub(t.lastRefill); el > 0 {
		t.bucket += int64(el.Seconds() * float64(s.cfg.TenantStepRate))
		if burst := int64(s.cfg.TenantStepBurst); t.bucket > burst {
			t.bucket = burst
		}
		t.lastRefill = now
	}
	if t.bucket <= 0 {
		t.c.shedStepQuota++
		s.c.shedTenant++
		return false
	}
	return true
}
