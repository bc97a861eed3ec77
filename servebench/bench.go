package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/registry"
	"repro/internal/server"
)

// setupReplays is how often a traced run replays the load path of each
// image set-up admitted.
const setupReplays = 5

// shares renders each window's CPU share of the clients' CPUs.
func shares(cpu []time.Duration) []float64 {
	out := make([]float64, len(cpu))
	for i, c := range cpu {
		out[i] = math.Round(c.Seconds()/(clients*window.Seconds())*100) / 100
	}
	return out
}

// untraced is what the untraced timed phase leaves for the ledger.
type untraced struct {
	st                  phaseStats
	wall                time.Duration
	regBefore, regAfter registry.Stats
	rt0, rt1            runtimeSample
}

// runWorkload is one benchmark run: plan the seed's requests and their
// reference answers, set up (setups times), warm up, collect garbage, then
// time the closed loop. A traced run times an untraced phase and a traced
// phase of half the length each and reports the per-layer ledger.
func runWorkload(w *workloadDef, seed int64, length time.Duration, traced bool) (*outcome, error) {
	pl, err := w.plan(seed)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", w.name, err)
	}
	o := &outcome{}
	spinBefore := spinNs()

	srv, setupS, err := setUp(pl)
	if err != nil {
		return nil, err
	}

	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{id: i, next: pl.seq(i)}
	}
	drive(srv, pl, cs, pl.warmup, time.Now(), time.Time{}, nil)
	warm := merged(cs)
	// The warm-up is a fixed prefix of each client's sequence, so these
	// simulated counts are exact and repeat for a seed.
	runs, agg := srv.Registry().Aggregate()
	instrPerReq := float64(agg.Instructions) / float64(max(runs, 1))
	cyclesPerReq := float64(agg.Cycles) / float64(max(runs, 1))
	runtime.GC()

	phase := length
	if traced {
		phase = length / 2
	}
	u := &untraced{regBefore: srv.Registry().Stats(), rt0: readRuntime()}
	cpu0 := processCPU()
	start := time.Now()
	smp := startSampler(start)
	u.wall = drive(srv, pl, cs, 0, start, start.Add(phase), nil)
	smp.Stop()
	cpu1 := processCPU()
	u.rt1 = readRuntime()
	u.regAfter = srv.Registry().Stats()
	u.st = merged(cs)
	clean, nClean, contended := cleanWindows(smp.cpu)
	tm := u.st.overWindows(clean, nClean, smp.peaks)

	o.attempted = warm.attempted + u.st.attempted
	o.failed = o.attempted - warm.ok - u.st.ok
	o.problems = append(warm.problems, u.st.problems...)

	rec := map[string]any{
		"workload": w.name, "seed": seed, "seconds": length.Seconds(), "trace": traced,
		"machine":           fingerprint(),
		"setup_s":           setupS,
		"timed_requests":    u.st.attempted,
		"timed_ok":          u.st.ok,
		"warmup_requests":   warm.attempted,
		"wall_rps":          float64(u.st.ok) / u.wall.Seconds(),
		"cpu_util":          (cpu1 - cpu0).Seconds() / u.wall.Seconds(),
		"windows":           map[string]any{"full": len(clean), "clean": nClean, "contended": contended},
		"window_cpu_share":  shares(smp.cpu),
		"window_ok":         u.st.okPerWindow(),
		"run_hits_misses":   []int{u.st.hits, u.st.misses},
		"replaced_draws":    pl.replaced,
		"siminstr_per_req":  instrPerReq,
		"simcycles_per_req": cyclesPerReq,
	}

	if traced {
		o.set("core.siminstr_per_req", instrPerReq, "count")
		o.set("core.simcycles_per_req", cyclesPerReq, "count")
		o.set("core.fast_transfer_frac", agg.FastFraction(), "frac")
		cts, err := traceLedger(o, srv, pl, cs, phase, u)
		if err != nil {
			return nil, err
		}
		if path, err := writeSpans(fmt.Sprintf("%s-seed%d", w.name, seed), cts); err != nil {
			rec["spans_file"] = "not written: " + err.Error()
		} else {
			rec["spans_file"] = path
		}
	} else {
		o.set("throughput_rps", tm.rps, "1/s")
		o.set("latency_p50_us", tm.p50us, "us")
		o.set("latency_p99_us", tm.p99us, "us")
		o.set("ns_per_siminstr", tm.nsPerInstr, "ns")
		o.set("heap_peak_mb", tm.heapMB, "MB")
		o.set("setup_s", median(setupS), "s")
		rec["samples"] = map[string]int{"latency": tm.latencies, "setup": len(setupS), "heap_windows": nClean}
	}

	spinAfter := spinNs()
	rec["host_spin_ns"] = map[string]float64{"before": median(spinBefore), "after": median(spinAfter)}
	if traced {
		o.set("host.spin_ns", median(append(spinBefore, spinAfter...)), "ns")
	}
	if len(o.problems) > 0 {
		rec["problems"] = o.problems
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return nil, err
	}
	o.report = append([]string{string(line)}, o.report...)
	return o, nil
}

// traceLedger runs the traced phase, replays set-up's load paths where
// the workload never misses, and sets the per-layer metrics. It returns
// the clients' spans.
func traceLedger(o *outcome, srv *server.Server, pl *plan, cs []*client, phase time.Duration, u *untraced) ([]*clientTrace, error) {
	tr := newTracer(srv)
	cts := make([]*clientTrace, clients)
	for i := range cts {
		cts[i] = &clientTrace{t: tr, base: int64(i) << 40, id: int64(i) << 40}
	}
	start := time.Now()
	wall := drive(srv, pl, cs, 0, start, start.Add(phase), func(c *client, s *spec, t0 time.Time, d time.Duration) {
		cts[c.id].request(s, t0, d, c.cached)
	})
	st := merged(cs)
	if len(pl.prefill) == 0 {
		cts[0].setupReplay(pl, setupReplays)
	}
	o.attempted += st.attempted
	o.failed += st.attempted - st.ok
	o.problems = append(o.problems, st.problems...)
	lg := account(cts)
	for _, ct := range cts {
		o.problems = append(o.problems, ct.probs...)
	}

	var gets, cold, resets, elided int
	var instrs uint64
	for _, ct := range cts {
		gets += ct.gets
		cold += ct.cold
		resets += ct.resets
		elided += ct.elided
		instrs += ct.instrs
	}
	shed, err := scrapeShed(srv)
	if err != nil {
		return nil, err
	}
	requestUs := float64(u.st.reqNs) / float64(max(u.st.attempted, 1)) / 1e3
	perReq := float64(max(lg.requests, 1))
	timedReqs := float64(max(u.st.attempted, 1))
	rb, ra := u.regBefore, u.regAfter
	lookups := float64(ra.Hits - rb.Hits + ra.Misses - rb.Misses)
	certStack := ra.CertifiedByCert["stack_bounds"] + ra.CertifiedByCert["both"]

	o.set("server.request_us", requestUs, "us")
	o.set("server.codec_us", float64(lg.reqLayer[lCodec])/perReq/1e3, "us")
	o.set("server.self_us", requestUs-float64(lg.childNs)/perReq/1e3, "us")
	o.set("server.shed_frac", shed/float64(o.attempted), "frac")
	o.set("registry.lookup_ns", lg.mean(lLookup, 1), "ns")
	o.set("registry.submit_miss_us", lg.mean(lSubmitMiss, 1e3), "us")
	o.set("registry.hit_frac", float64(ra.Hits-rb.Hits)/max(lookups, 1), "frac")
	o.set("registry.evictions_per_1k", float64(ra.Evictions-rb.Evictions)/timedReqs*1e3, "count")
	o.set("lang.compile_us", lg.mean(lCompile, 1e3), "us")
	o.set("linker.link_us", lg.mean(lLink, 1e3), "us")
	o.set("verify.verify_us", lg.mean(lVerify, 1e3), "us")
	o.set("verify.certified_frac", float64(certStack)/float64(max(ra.Certified+ra.Uncertified, 1)), "frac")
	o.set("core.load_us", lg.mean(lLoad, 1e3)-lg.mean(lVerify, 1e3), "us")
	o.set("pool.warm_us", lg.mean(lWarm, 1e3), "us")
	o.set("core.run_us", lg.mean(lRun, 1e3), "us")
	o.set("core.run_ns_per_siminstr", float64(lg.layerNs[lRun])/float64(max(instrs, 1)), "ns")
	o.set("core.certified_instr_frac", float64(u.st.certSteps)/float64(max(u.st.steps, 1)), "frac")
	o.set("core.metrics_ns", lg.mean(lMetrics, 1), "ns")
	o.set("core.reset_ns", lg.mean(lReset, 1), "ns")
	o.set("core.reset_elided_frac", float64(elided)/float64(max(resets, 1)), "frac")
	o.set("pool.get_ns", lg.mean(lGet, 1), "ns")
	o.set("pool.cold_boot_frac", float64(cold)/float64(max(gets, 1)), "frac")
	o.set("pool.put_ns", lg.mean(lPut, 1), "ns")
	o.set("gc.alloc_bytes_per_req", float64(u.rt1.allocBytes-u.rt0.allocBytes)/timedReqs, "B")
	o.set("gc.cycles_per_1k_req", float64(u.rt1.gcCycles-u.rt0.gcCycles)/timedReqs*1e3, "count")
	o.set("gc.cpu_frac", (u.rt1.gcCPU-u.rt0.gcCPU)/max(u.rt1.totalCPU-u.rt0.totalCPU, 1e-9), "frac")
	o.set("trace.overhead_frac", 1-(float64(st.ok)/wall.Seconds())/(float64(u.st.ok)/u.wall.Seconds()), "frac")
	o.set("ledger.run_share", lg.runShare(requestUs), "frac")
	o.set("ledger.build_share", lg.buildShare(requestUs), "frac")

	o.report = append(o.report, lg.table(requestUs)...)
	return cts, nil
}
