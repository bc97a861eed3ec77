// Benchmarks: one per experiment (the paper's tables and figures — see
// DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured),
// plus microbenchmarks of the simulator itself. The per-experiment benches
// report the key measured statistics as benchmark metrics, so
// `go test -bench=.` regenerates the evaluation.
package fpc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	fpc "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/frames"
	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/internal/xfer"
)

// benchExperiment runs one experiment per iteration and reports its key
// values as metrics.
func benchExperiment(b *testing.B, run func() (*experiments.Result, error), keys ...string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if !last.Passed() {
		for _, c := range last.Checks {
			if !c.Pass {
				b.Errorf("check failed: %s (got %s)", c.Claim, c.Got)
			}
		}
	}
	for _, k := range keys {
		if v, ok := last.Values[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// BenchmarkE1CallPathRefs — Figure 1 / §5.1: memory references per call
// mechanism (EXTERNALCALL's four levels of indirection vs LOCALCALL vs
// DIRECTCALL).
func BenchmarkE1CallPathRefs(b *testing.B) {
	benchExperiment(b, experiments.E1CallPathRefs, "ext_refs", "local_refs", "direct_refs")
}

// BenchmarkE2TableEncoding — §5 T1: nf vs ni+f space; the paper's n=3
// example saves 34 bits.
func BenchmarkE2TableEncoding(b *testing.B) {
	benchExperiment(b, experiments.E2TableEncoding, "saved_n3", "crossover_n")
}

// BenchmarkE3InstrLengths — §5: share of one-byte instructions in the
// compiled corpus (paper: about two-thirds on a large Mesa sample).
func BenchmarkE3InstrLengths(b *testing.B) {
	benchExperiment(b, experiments.E3InstrLengths, "one_byte_fraction")
}

// BenchmarkE4FrameHeap — Figure 2 / §5.3: 3-ref allocation, 4-ref free,
// ~10% fragmentation with <20 geometric size classes.
func BenchmarkE4FrameHeap(b *testing.B) {
	benchExperiment(b, experiments.E4FrameHeap, "alloc_refs", "free_refs", "frag_20_classes")
}

// BenchmarkE5ReturnStack — §6: hit rate of the IFU return stack across
// depths on synthetic traces and the compiled corpus.
func BenchmarkE5ReturnStack(b *testing.B) {
	benchExperiment(b, experiments.E5ReturnStack, "corpus_hit8", "trace_hit8")
}

// BenchmarkE6CallSpace — §6 D1: static space of LV vs DIRECTCALL vs
// SHORTDIRECTCALL linkage (+30% at one call, SDCALL break-even, +50% at two).
func BenchmarkE6CallSpace(b *testing.B) {
	benchExperiment(b, experiments.E6CallSpace, "dcall_overhead_k1", "sdcall_overhead_k2", "measured_dcall_ratio")
}

// BenchmarkE7RegisterBanks — §7.1: bank overflow+underflow under 5% of
// XFERs with 4 banks, ~1% with 8; 95% of frames under 80 bytes; effective
// allocation speed ~0.8x.
func BenchmarkE7RegisterBanks(b *testing.B) {
	benchExperiment(b, experiments.E7RegisterBanks,
		"trace_trouble4", "trace_trouble8", "frames_under_80B", "effective_alloc_speed")
}

// BenchmarkE8ArgPassing — §5.2 vs §7.2 / Figure 3: argument words moved
// per call with stack stores vs bank renaming.
func BenchmarkE8ArgPassing(b *testing.B) {
	benchExperiment(b, experiments.E8ArgPassing, "arg_words_stack", "arg_words_banks")
}

// BenchmarkE9Tradeoffs — §8: cycles per call+return for I2/I3/I4 and the
// headline 95%-at-jump-speed statistic.
func BenchmarkE9Tradeoffs(b *testing.B) {
	benchExperiment(b, experiments.E9Tradeoffs, "i2_cyc", "i3_cyc", "i4_cyc", "jump_fast_fraction")
}

// BenchmarkE10EarlyBinding — §6/§8: identical behaviour under both
// linkages; early binding trades space for speed.
func BenchmarkE10EarlyBinding(b *testing.B) {
	benchExperiment(b, experiments.E10EarlyBinding, "speedup")
}

// BenchmarkE11CallDensity — §1: one call or return per ~10 instructions.
func BenchmarkE11CallDensity(b *testing.B) {
	benchExperiment(b, experiments.E11CallDensity, "instrs_per_transfer", "min_instrs_per_transfer")
}

// BenchmarkE12LocalReferenceShare — §7.3: local variables take half or
// more of all data references; banks remove them from storage.
func BenchmarkE12LocalReferenceShare(b *testing.B) {
	benchExperiment(b, experiments.E12LocalReferenceShare, "local_share", "refs_removed")
}

// Ablation sweeps (design parameters the paper leaves open).

// BenchmarkA1ReturnStackDepth sweeps the §6 return-stack depth.
func BenchmarkA1ReturnStackDepth(b *testing.B) {
	benchExperiment(b, experiments.A1ReturnStackDepth, "cycles_d0", "cycles_d8")
}

// BenchmarkA2BankCount sweeps the §7.1 register bank count.
func BenchmarkA2BankCount(b *testing.B) {
	benchExperiment(b, experiments.A2BankCount, "cycles_b0", "cycles_b9")
}

// BenchmarkA3BankWords sweeps the §7.1 bank size.
func BenchmarkA3BankWords(b *testing.B) {
	benchExperiment(b, experiments.A3BankWords, "hit_w16")
}

// BenchmarkA4FreeFrameStack sweeps the §7.1 free-frame stack capacity.
func BenchmarkA4FreeFrameStack(b *testing.B) {
	benchExperiment(b, experiments.A4FreeFrameStack, "cycles_f0", "cycles_f8")
}

// BenchmarkA5ImportSlotSorting measures the §5.1 hot-slot policy.
func BenchmarkA5ImportSlotSorting(b *testing.B) {
	benchExperiment(b, experiments.A5ImportSlotSorting, "bytes_saved")
}

// --- microbenchmarks of the implementation itself ---

func buildFib(b *testing.B, early bool) *fpc.Program {
	b.Helper()
	p := workload.Fib(15)
	prog, _, err := p.Build(linker.Options{EarlyBind: early})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkPoolThroughput hammers one machine pool — one shared
// LoadedImage — with b.RunParallel, so calls/sec scales with GOMAXPROCS.
// This is the serving-layer counterpart of the per-call microbenchmarks.
func BenchmarkPoolThroughput(b *testing.B) {
	prog := buildFib(b, true)
	pool, err := fpc.NewPool(prog, fpc.ConfigFastCalls)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := pool.Call(prog.Entry, 15); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	mt := pool.Metrics()
	if n := pool.Runs(); n > 0 {
		b.ReportMetric(float64(mt.Cycles)/float64(n), "simcycles/op")
	}
	b.ReportMetric(mt.FastFraction(), "fastfrac")
}

// BenchmarkPoolShortCall is BenchmarkPoolThroughput with a call short
// enough for the pool to show: fib(3), 52 simulated instructions, on a
// pool warmed with one machine, so Get and Put are a large share of each
// op and contention on the pool shows at -cpu 2 and up.
func BenchmarkPoolShortCall(b *testing.B) {
	prog := buildFib(b, true)
	pool, err := fpc.NewPool(prog, fpc.ConfigFastCalls)
	if err != nil {
		b.Fatal(err)
	}
	if err := pool.Warm(1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := pool.Call(prog.Entry, 3); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// engineMix is the corpus at the sizes servebench's engine-mix workload
// runs, 12-40k simulated instructions per call. The list mirrors
// servebench/workloads.go's engineMix.
func engineMix() []*workload.Program {
	return []*workload.Program{
		workload.Fib(15),
		workload.Ackermann(2, 28),
		workload.Tak(12, 8, 4),
		workload.Sort(72),
		workload.Sieve(450),
		workload.Queens(5),
		workload.CallChain(600),
		workload.Coroutines(900),
		workload.Interfaces(660),
		workload.Pressure(440),
		workload.Traps(920),
	}
}

// BenchmarkEngineMix times one pooled call of each engineMix program on a
// warm verified ConfigFastCalls pool, through CallContext with a
// cancellable context and a deadline as the server calls it. ns/siminstr
// normalizes the programs' different lengths so they are comparable;
// simcycles/op is the exact simulated cost of one call, which no
// host-side change may move. Both come from the pool's aggregate rather
// than CallResult, so scripts/abpair -overlay bench_test.go can time a
// base revision whose CallResult has other fields (but whose CallContext
// takes the same arguments).
func BenchmarkEngineMix(b *testing.B) {
	for _, p := range engineMix() {
		b.Run(p.Name, func(b *testing.B) {
			prog, _, err := p.Build(fpc.DefaultLinkOptions(fpc.ConfigFastCalls))
			if err != nil {
				b.Fatal(err)
			}
			img, err := fpc.LoadImageVerified(prog, fpc.ConfigFastCalls)
			if err != nil {
				b.Fatal(err)
			}
			pool := fpc.NewPoolFromImage(img)
			if err := pool.Warm(1); err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.CallContext(ctx, prog.Entry, 0, time.Now().Add(time.Minute), p.Args...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			agg := pool.Metrics()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(agg.Instructions), "ns/siminstr")
			b.ReportMetric(float64(agg.Cycles)/float64(pool.Runs()), "simcycles/op")
		})
	}
}

// BenchmarkServeCallShort times one served request of servebench's
// call-short workload in process: POST /call/{hash} through ServeHTTP on
// fib(3) (the boot image), traps(2) and sieve(9) in turn, on a server
// built as servebench builds it (a verified ConfigFastCalls boot image,
// Verify, CacheImages 64). Each program's request and body are encoded
// once and reused, and the response goes to a reused recorder, so ns/op
// and allocs/op are the server's own cost per request.
func BenchmarkServeCallShort(b *testing.B) {
	progs := []*workload.Program{workload.Fib(3), workload.Traps(2), workload.Sieve(9)}
	var srv *server.Server
	type call struct {
		req  *http.Request
		rd   *bytes.Reader
		body []byte
	}
	calls := make([]call, len(progs))
	for i, p := range progs {
		prog, _, err := p.Build(fpc.DefaultLinkOptions(fpc.ConfigFastCalls))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			img, err := fpc.LoadImageVerified(prog, fpc.ConfigFastCalls)
			if err != nil {
				b.Fatal(err)
			}
			srv = server.New(fpc.NewPoolFromImage(img), server.Config{Verify: true, CacheImages: 64})
		} else if _, _, err := srv.Registry().Submit(prog); err != nil {
			b.Fatal(err)
		}
		args := make([]int64, len(p.Args))
		for j, a := range p.Args {
			args[j] = int64(a)
		}
		body, err := json.Marshal(server.CallRequest{Args: args})
		if err != nil {
			b.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, "/call/"+prog.ContentHash(), nil)
		if err != nil {
			b.Fatal(err)
		}
		rd := bytes.NewReader(nil)
		req.Body = io.NopCloser(rd)
		calls[i] = call{req, rd, body}
	}
	var rec benchRecorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := calls[i%len(calls)]
		c.rd.Reset(c.body)
		rec.reset()
		srv.ServeHTTP(&rec, c.req)
		if rec.status != http.StatusOK {
			b.Fatalf("%s: status %d: %s", c.req.URL.Path, rec.status, rec.body.Bytes())
		}
	}
}

// firstSightDraws returns 256 submit-churn draws,
// RandomProgram(seed<<24 + i<<4) for seed 3.
func firstSightDraws() []*workload.Program {
	const seed, draws = 3, 256
	ps := make([]*workload.Program, draws)
	for i := range ps {
		ps[i] = workload.RandomProgram(seed<<24 + int64(i)<<4)
	}
	return ps
}

// BenchmarkFirstSight times a first-sight POST /run through
// Server.ServeHTTP: compile, link, verify, load, warm, run and the
// registry's eviction, on a server built as servebench builds it (a
// verified FastCalls boot image, Verify, CacheImages 64). The bodies are
// pre-encoded firstSightDraws, keeping the draws that answer 200; there
// are four times as many as the cap, so every op misses and evicts.
func BenchmarkFirstSight(b *testing.B) {
	const images = 64
	prog, _, err := workload.Fib(3).Build(fpc.DefaultLinkOptions(fpc.ConfigFastCalls))
	if err != nil {
		b.Fatal(err)
	}
	img, err := fpc.LoadImageVerified(prog, fpc.ConfigFastCalls)
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(fpc.NewPoolFromImage(img), server.Config{Verify: true, CacheImages: images})
	req, err := http.NewRequest(http.MethodPost, "/run", nil)
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	req.Body = io.NopCloser(rd)
	var rec benchRecorder
	serve := func(body []byte) int {
		rd.Reset(body)
		rec.reset()
		srv.ServeHTTP(&rec, req)
		return rec.status
	}
	var bodies [][]byte
	for _, p := range firstSightDraws() {
		args := make([]int64, len(p.Args))
		for j, a := range p.Args {
			args[j] = int64(a)
		}
		body, err := json.Marshal(server.RunRequest{Modules: p.Sources, Entry: p.Module + "." + p.Proc, Args: args})
		if err != nil {
			b.Fatal(err)
		}
		if serve(body) == http.StatusOK {
			bodies = append(bodies, body)
		}
	}
	if len(bodies) < 2*images {
		b.Fatalf("only %d of the draws answer 200", len(bodies))
	}
	hits := srv.Registry().Stats().Hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status := serve(bodies[i%len(bodies)]); status != http.StatusOK {
			b.Fatalf("draw %d: status %d: %s", i%len(bodies), status, rec.body.Bytes())
		}
	}
	b.StopTimer()
	if h := srv.Registry().Stats().Hits; h != hits {
		b.Fatalf("%d of %d first sightings hit the registry", h-hits, b.N)
	}
}

// BenchmarkVerify times the link-time verifier alone, as a first-sight
// /run pays it: fpc.Verify over RandomProgram seeds 0-2999, each built
// beforehand under both linkages, one program per op.
func BenchmarkVerify(b *testing.B) {
	var progs []*fpc.Program
	for seed := int64(0); seed < 3000; seed++ {
		for _, early := range []bool{false, true} {
			prog, _, err := workload.RandomProgram(seed).Build(fpc.LinkOptions{EarlyBind: early})
			if err != nil {
				b.Fatal(err)
			}
			progs = append(progs, prog)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !fpc.Verify(progs[i%len(progs)]).Admitted() {
			b.Fatalf("program %d rejected", i%len(progs))
		}
	}
}

// benchRecorder is a reusable http.ResponseWriter that keeps no header
// snapshot, so it adds no allocation to the request it records.
type benchRecorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *benchRecorder) Header() http.Header { return r.hdr }

func (r *benchRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *benchRecorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *benchRecorder) reset() {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// BenchmarkBoot compares the two ways to get a runnable machine: booting
// from scratch (compile-free but full load: zeroed 64K store, data pokes,
// heap boot, free-frame prefill) versus resetting a dirtied machine to its
// image snapshot (dirty-window memcpy). The tiny run keeps setup dominant;
// the acceptance bar is reset ≥5× cheaper than new.
func BenchmarkBoot(b *testing.B) {
	prog := buildFib(b, true)
	b.Run("new", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := fpc.NewMachine(prog, fpc.ConfigFastCalls)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Call(prog.Entry, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reset", func(b *testing.B) {
		m, err := fpc.NewMachine(prog, fpc.ConfigFastCalls)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			m.Reset()
			if _, err := m.Call(prog.Entry, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFrameHeap times the Figure 2 allocator's alloc/free pair.
func BenchmarkFrameHeap(b *testing.B) {
	m := mem.New()
	h, err := frames.New(m, frames.Config{AVBase: 0x100, HeapBase: 0x200, HeapLimit: 0xF000})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lf, err := h.Alloc(2)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Free(lf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXferModel times a call+return round trip through the I1
// abstract model (goroutine hand-off per activation).
func BenchmarkXferModel(b *testing.B) {
	s := xfer.NewSystem()
	defer s.Shutdown()
	leaf := &xfer.ProcDesc{Name: "leaf", Code: func(fr *xfer.Frame, args []xfer.Value) []xfer.Value {
		return args
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Call(leaf, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile times the compiler. queens builds (compiles and links)
// one corpus program per op. submit-churn runs fpc.Compile alone over the
// submit-churn draws BenchmarkFirstSight submits, one draw per op: the
// frontend work of a first sighting.
func BenchmarkCompile(b *testing.B) {
	b.Run("queens", func(b *testing.B) {
		p := workload.Queens(6)
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Build(linker.Options{EarlyBind: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("submit-churn", func(b *testing.B) {
		draws := firstSightDraws()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fpc.Compile(draws[i%len(draws)].Sources); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInterpreterDispatch times raw simulated instruction dispatch.
// Each iteration Resets the machine, so the cumulative step limit never
// cuts a long benchmark run; metrics after the loop describe the final
// (representative) run.
func BenchmarkInterpreterDispatch(b *testing.B) {
	p := workload.Sieve(200)
	prog, _, err := p.Build(linker.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(prog, core.ConfigMesa)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := m.Call(prog.Entry); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Metrics().Instructions), "siminstrs/op")
}

// dispatchTrace step-drives fib(15) once and records the byte pc of every
// executed instruction — the input for the frontend microbenchmarks.
func dispatchTrace(b *testing.B, prog *fpc.Program) []uint32 {
	b.Helper()
	m, err := core.New(prog, core.ConfigMesa)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Start(prog.Entry, 15); err != nil {
		b.Fatal(err)
	}
	var trace []uint32
	for !m.Halted() {
		trace = append(trace, m.PC())
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return trace
}

// BenchmarkDispatch measures the decode-once engine. The per-config
// subbenchmarks time whole fib(15) runs (Reset + Call per iteration) on
// I2/I3/I4; the frontend pair replays one recorded pc trace through the
// byte-at-a-time decoder and through the predecoded table, isolating
// exactly the work predecoding removes from the hot path.
func BenchmarkDispatch(b *testing.B) {
	cfgs := []struct {
		name  string
		cfg   fpc.Config
		early bool
	}{
		{"mesa", fpc.ConfigMesa, false},
		{"fastfetch", fpc.ConfigFastFetch, true},
		{"fastcalls", fpc.ConfigFastCalls, true},
	}
	for _, c := range cfgs {
		b.Run(c.name, func(b *testing.B) {
			prog := buildFib(b, c.early)
			m, err := core.New(prog, c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				if _, err := m.Call(prog.Entry, 15); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.Metrics().Instructions), "siminstrs/op")
		})
	}

	prog := buildFib(b, false)
	trace := dispatchTrace(b, prog)
	b.Run("frontend-decode", func(b *testing.B) {
		var sink uint32
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, pc := range trace {
				in, _, err := isa.Decode(prog.Code, int(pc))
				if err != nil {
					b.Fatal(err)
				}
				sink += uint32(in.Op) + uint32(in.Arg)
			}
		}
		_ = sink
		b.ReportMetric(float64(len(trace)), "siminstrs/op")
	})
	b.Run("frontend-predecoded", func(b *testing.B) {
		insts, err := isa.Predecode(prog.Code)
		if err != nil {
			b.Fatal(err)
		}
		var sink uint32
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, pc := range trace {
				in := &insts[pc]
				sink += uint32(in.Op) + uint32(in.Arg)
			}
		}
		_ = sink
		b.ReportMetric(float64(len(trace)), "siminstrs/op")
	})
}
