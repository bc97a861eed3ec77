package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/stats"
)

// latencyBuckets are the upper bounds of the latency histogram exposition,
// in seconds. Samples are recorded in microseconds; the list spans the
// simulator's realistic per-request range (tens of µs to seconds).
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// writeMetrics renders the Prometheus text exposition: the pool's exact
// aggregate (the same counters a single-machine experiment reports) plus
// the server-side admission and latency accounting.
func (s *Server) writeMetrics(w io.Writer) {
	mt := s.pool.Metrics()
	runs := s.pool.Runs()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	// Pool aggregate: merged at Put time from every completed machine run,
	// successful or not.
	counter("fpc_pool_runs_total", "Machine runs merged into the pool aggregate.", runs)
	counter("fpc_pool_instructions_total", "Simulated instructions executed across all pooled runs.", mt.Instructions)
	counter("fpc_pool_cycles_total", "Simulated cycles across all pooled runs.", mt.Cycles)
	counter("fpc_pool_memory_refs_total", "Charged memory references across all pooled runs.", mt.ChargedRefs)
	counter("fpc_pool_calls_returns_total", "Calls and returns executed across all pooled runs.", mt.CallsAndReturns())
	counter("fpc_pool_fast_transfers_total", "Calls and returns that ran at unconditional-jump cost.", mt.FastTransfers)
	gauge("fpc_pool_fast_transfer_fraction", "Share of calls and returns at jump speed (the paper's headline).", mt.FastFraction())

	s.mu.Lock()
	c := s.c
	queueDepth, inFlight := s.queueDepth, s.inFlight
	lat := s.latency.Clone()
	draining := s.draining
	type tenantRow struct {
		name     string
		c        tenantCounters
		inFlight int
	}
	tenantRows := make([]tenantRow, 0, len(s.tenants))
	for name, t := range s.tenants {
		tenantRows = append(tenantRows, tenantRow{name, t.c, len(t.sem)})
	}
	s.mu.Unlock()
	sort.Slice(tenantRows, func(i, j int) bool { return tenantRows[i].name < tenantRows[j].name })

	counter("fpc_server_accepted_total", "Requests that got a run slot and executed.", c.accepted)
	counter("fpc_server_completed_total", "Requests that returned 200.", c.completed)
	counter("fpc_server_budget_exceeded_total", "Requests cut by step budget or deadline (504).", c.budgetExceeded)
	counter("fpc_server_run_errors_total", "Requests whose run failed (500).", c.runErrors)
	counter("fpc_server_bad_requests_total", "Malformed or unresolvable requests (400).", c.badRequests)
	fmt.Fprintf(w, "# HELP fpc_server_rejected_total Requests shed before running, by reason.\n# TYPE fpc_server_rejected_total counter\n")
	fmt.Fprintf(w, "fpc_server_rejected_total{reason=\"queue_full\"} %d\n", c.shedQueueFull)
	fmt.Fprintf(w, "fpc_server_rejected_total{reason=\"queue_timeout\"} %d\n", c.shedQueueWait)
	fmt.Fprintf(w, "fpc_server_rejected_total{reason=\"tenant\"} %d\n", c.shedTenant)
	fmt.Fprintf(w, "fpc_server_rejected_total{reason=\"draining\"} %d\n", c.shedDraining)
	fmt.Fprintf(w, "fpc_server_rejected_total{reason=\"client_gone\"} %d\n", c.canceledByPeer)
	counter("fpc_server_not_found_total", "Requests for a content hash not resident in the registry (404).", c.notFound)
	counter("fpcd_verify_rejected_total", "Submitted /run programs rejected by the link-time verifier (400, zero machine steps spent).", c.verifyRejected)
	counter("fpc_server_steps_served_total", "Sum of per-request executed instructions (equals fpc_pool_instructions_total when only /call drives the pool).", c.stepsServed)
	counter("fpc_server_cycles_served_total", "Sum of per-request simulated cycles.", c.cyclesServed)
	gauge("fpc_server_queue_depth", "Requests currently waiting for a run slot.", float64(queueDepth))
	gauge("fpc_server_in_flight", "Requests currently running on a machine.", float64(inFlight))
	drainingVal := 0.0
	if draining {
		drainingVal = 1
	}
	gauge("fpc_server_draining", "1 while a graceful drain is in progress.", drainingVal)

	// Registry: the content-addressed image cache. Hits+misses+not_found
	// account every submit and lookup one-for-one; misses count the
	// verify+predecode loads actually paid.
	rs := s.reg.Stats()
	counter("fpc_registry_hits_total", "Submissions and hash lookups served from a resident cached image (zero load-path work).", rs.Hits)
	counter("fpc_registry_misses_total", "Submissions that paid the load path (verify + predecode + boot snapshot) — exactly once per distinct program.", rs.Misses)
	counter("fpc_registry_evictions_total", "Cached images evicted (LRU memory budget, image cap, or explicit).", rs.Evictions)
	counter("fpc_registry_not_found_total", "Hash lookups of images not resident (never submitted or evicted).", rs.NotFound)
	counter("fpc_registry_verify_rejected_total", "Loads refused by the link-time verifier (never cached).", rs.VerifyRejected)
	gauge("fpc_registry_resident_images", "Images currently resident (including the pinned boot image).", float64(rs.Resident))
	gauge("fpc_registry_memory_bytes", "Accounted bytes of resident images and their warm machines.", float64(rs.MemoryBytes))
	gauge("fpc_registry_memory_budget_bytes", "The LRU memory budget.", float64(rs.MemoryBudget))
	regRuns, regMt := s.reg.Aggregate()
	counter("fpc_registry_runs_total", "Machine runs across every registry pool, evicted pools' work retained.", regRuns)
	counter("fpc_registry_instructions_total", "Simulated instructions across every registry pool.", regMt.Instructions)
	counter("fpc_registry_cycles_total", "Simulated cycles across every registry pool.", regMt.Cycles)

	// Parked sessions: continuations held off-machine between /session
	// segments. Parked-resumed-expired-evicted accounts every session's
	// exit from the table exactly once.
	ss := s.reg.Sessions().Stats()
	counter("fpc_session_parked_total", "Session segments parked into the table (budget or output backpressure).", ss.Parked)
	counter("fpc_session_resumed_total", "Parked sessions taken for resumption.", ss.Resumed)
	counter("fpc_session_expired_total", "Parked sessions dropped by TTL.", ss.Expired)
	counter("fpc_session_evicted_total", "Parked sessions LRU-evicted (session cap or byte budget).", ss.Evicted)
	counter("fpc_session_quota_rejected_total", "Parks refused by a per-tenant session quota.", ss.QuotaRejected)
	counter("fpc_session_not_found_total", "Resumes of sessions not in the table (expired, evicted, foreign, or never parked).", ss.NotFound)
	gauge("fpc_session_resident", "Sessions currently parked.", float64(ss.Resident))
	gauge("fpc_session_bytes", "Encoded continuation bytes currently parked.", float64(ss.Bytes))

	// Per-tenant fairness accounting: one row per tenant the process has
	// seen, so a saturating tenant's sheds are visibly theirs alone.
	if len(tenantRows) > 0 {
		fmt.Fprintf(w, "# HELP fpc_tenant_accepted_total Requests that ran, by tenant.\n# TYPE fpc_tenant_accepted_total counter\n")
		for _, tr := range tenantRows {
			fmt.Fprintf(w, "fpc_tenant_accepted_total{tenant=%q} %d\n", tr.name, tr.c.accepted)
		}
		fmt.Fprintf(w, "# HELP fpc_tenant_completed_total Requests that returned 200, by tenant.\n# TYPE fpc_tenant_completed_total counter\n")
		for _, tr := range tenantRows {
			fmt.Fprintf(w, "fpc_tenant_completed_total{tenant=%q} %d\n", tr.name, tr.c.completed)
		}
		fmt.Fprintf(w, "# HELP fpc_tenant_steps_served_total Simulated instructions served, by tenant.\n# TYPE fpc_tenant_steps_served_total counter\n")
		for _, tr := range tenantRows {
			fmt.Fprintf(w, "fpc_tenant_steps_served_total{tenant=%q} %d\n", tr.name, tr.c.steps)
		}
		fmt.Fprintf(w, "# HELP fpc_tenant_rejected_total Requests shed by a tenant shard, by tenant and reason.\n# TYPE fpc_tenant_rejected_total counter\n")
		for _, tr := range tenantRows {
			fmt.Fprintf(w, "fpc_tenant_rejected_total{tenant=%q,reason=\"queue_full\"} %d\n", tr.name, tr.c.shedQueueFull)
			fmt.Fprintf(w, "fpc_tenant_rejected_total{tenant=%q,reason=\"queue_timeout\"} %d\n", tr.name, tr.c.shedQueueWait)
			fmt.Fprintf(w, "fpc_tenant_rejected_total{tenant=%q,reason=\"step_quota\"} %d\n", tr.name, tr.c.shedStepQuota)
		}
		fmt.Fprintf(w, "# HELP fpc_tenant_in_flight Tenant tokens currently held.\n# TYPE fpc_tenant_in_flight gauge\n")
		for _, tr := range tenantRows {
			fmt.Fprintf(w, "fpc_tenant_in_flight{tenant=%q} %d\n", tr.name, tr.inFlight)
		}
	}

	writeLatencyHistogram(w, &lat)
}

// writeLatencyHistogram renders the stats.Histogram of per-request
// latencies (µs samples) in Prometheus histogram exposition format.
func writeLatencyHistogram(w io.Writer, h *stats.Histogram) {
	const name = "fpc_server_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Wall-clock latency of executed requests.\n# TYPE %s histogram\n", name, name)
	for _, le := range latencyBuckets {
		n := h.CountAtMost(int(le * 1e6))
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, le, n)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.Sum())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}
