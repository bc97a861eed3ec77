package fpc_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	fpc "repro"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/workload"
)

// servingSrc is a multi-procedure module in the serving shape: a fast
// call, a runaway loop only a budget can end, a run that traps, and an
// OUT-emitting procedure.
const servingSrc = `
module srv;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc forever() {
  var i = 0;
  while (1) { i = i + 1; }
  return i;
}
proc fail(n) { return 100 / n; }
proc emit(n) { out(n); out(n+1); return n; }
proc main(n) { return fib(n); }
`

func buildServingPool(t *testing.T, cfg fpc.Config) (*fpc.Pool, *fpc.Program) {
	t.Helper()
	prog, err := fpc.Build(map[string]string{"srv": servingSrc}, "srv", "main", fpc.DefaultLinkOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := fpc.NewPool(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pool, prog
}

func buildPool(t *testing.T, cfg fpc.Config) (*fpc.Pool, *workload.Program, *fpc.Program) {
	t.Helper()
	p := workload.Fib(12)
	prog, _, err := p.Build(fpc.DefaultLinkOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := fpc.NewPool(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pool, p, prog
}

func TestPoolCall(t *testing.T) {
	pool, p, prog := buildPool(t, fpc.ConfigFastCalls)
	for i := 0; i < 3; i++ {
		res, err := pool.Call(prog.Entry, p.Args...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0] != *p.Want {
			t.Fatalf("run %d: results = %v, want [%d]", i, res, *p.Want)
		}
	}
	if pool.Runs() != 3 {
		t.Fatalf("Runs = %d", pool.Runs())
	}
	if pool.Entry() != prog.Entry {
		t.Fatal("Entry accessor broken")
	}
	desc, err := prog.FindProc("fib", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Call(desc, p.Args...); err != nil {
		t.Fatal(err)
	}
	if _, err := prog.FindProc("fib", "nothere"); err == nil {
		t.Fatal("missing proc accepted")
	}
}

// TestPoolMetricsMerge: the pool aggregate must equal exactly N times one
// reference run — determinism plus a correct merge leave no remainder.
func TestPoolMetricsMerge(t *testing.T) {
	pool, p, prog := buildPool(t, fpc.ConfigFastCalls)
	ref, err := pool.Image().NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Call(prog.Entry, p.Args...); err != nil {
		t.Fatal(err)
	}
	one := ref.Metrics()

	const n = 5
	for i := 0; i < n; i++ {
		if _, err := pool.Call(prog.Entry, p.Args...); err != nil {
			t.Fatal(err)
		}
	}
	agg := pool.Metrics()
	if agg.Instructions != n*one.Instructions {
		t.Errorf("Instructions = %d, want %d", agg.Instructions, n*one.Instructions)
	}
	if agg.Cycles != n*one.Cycles {
		t.Errorf("Cycles = %d, want %d", agg.Cycles, n*one.Cycles)
	}
	if agg.ChargedRefs != n*one.ChargedRefs {
		t.Errorf("ChargedRefs = %d, want %d", agg.ChargedRefs, n*one.ChargedRefs)
	}
	if agg.FastTransfers != n*one.FastTransfers {
		t.Errorf("FastTransfers = %d, want %d", agg.FastTransfers, n*one.FastTransfers)
	}
	for k := range agg.Transfers {
		if agg.Transfers[k] != n*one.Transfers[k] {
			t.Errorf("Transfers[%d] = %d, want %d", k, agg.Transfers[k], n*one.Transfers[k])
		}
	}
	if got, want := agg.CyclesPer[0].Count()+agg.CyclesPer[1].Count()+agg.CyclesPer[2].Count()+agg.CyclesPer[3].Count()+agg.CyclesPer[4].Count(),
		one.CyclesPer[0].Count()+one.CyclesPer[1].Count()+one.CyclesPer[2].Count()+one.CyclesPer[3].Count()+one.CyclesPer[4].Count(); got != n*want {
		t.Errorf("histogram sample count = %d, want %d", got, n*want)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestPoolCallAllocs bounds the allocations of one call on a warm pool at
// two: the CallResult and the results record. Nothing the engine does —
// bank flushes and reloads, trap saves, the metrics merge, the cancel
// probe watching the context and the deadline — may allocate once the
// machine has served a call. The programs are the two short calls of
// call-short plus the 11 corpus programs at the sizes servebench's
// engine-mix runs (engineMix), called as the server calls them: through
// CallContext with a cancellable context and a deadline.
func TestPoolCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const max = 2
	progs := append([]*workload.Program{workload.Fib(3), workload.Sieve(9)}, engineMix()...)
	for _, p := range progs {
		t.Run(p.Name, func(t *testing.T) {
			prog, _, err := p.Build(fpc.DefaultLinkOptions(fpc.ConfigFastCalls))
			if err != nil {
				t.Fatal(err)
			}
			pool, err := fpc.NewPool(prog, fpc.ConfigFastCalls)
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.Warm(1); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got := testing.AllocsPerRun(20, func() {
				cr, err := pool.CallContext(ctx, prog.Entry, 0, time.Now().Add(time.Minute), p.Args...)
				if err != nil {
					t.Fatal(err)
				}
				if p.Want != nil && (len(cr.Results) != 1 || cr.Results[0] != *p.Want) {
					t.Fatalf("results %v, want %d", cr.Results, *p.Want)
				}
			})
			if got > max {
				t.Fatalf("%.1f allocations per call, want at most %d", got, max)
			}
			t.Logf("%.1f allocations per call", got)
		})
	}
}

// TestPoolConcurrentStress hammers one Pool — one shared LoadedImage —
// from many goroutines. Run under -race this is the §6 "orderly retreat"
// of the serving layer: no shared mutable state outside the pool's own
// synchronization. The pool keeps a few warmed machines and caches the
// rest in its sync.Pool. Halfway through its runs one worker releases the
// pool while the others keep calling, and no machine may be handed to two
// callers at once, before or after. The aggregate must still be an exact
// multiple of a single run.
func TestPoolConcurrentStress(t *testing.T) {
	pool, p, prog := buildPool(t, fpc.ConfigFastCalls)
	if err := pool.Warm(4); err != nil {
		t.Fatal(err)
	}
	ref, err := pool.Image().NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Call(prog.Entry, p.Args...); err != nil {
		t.Fatal(err)
	}
	one := ref.Metrics()

	const workers = 12
	perWorker := 25
	if testing.Short() {
		perWorker = 5
	}
	var wg sync.WaitGroup
	var inUse sync.Map // *fpc.Machine -> struct{}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if w == 0 && j == perWorker/2 {
					pool.Release()
				}
				var res []fpc.Word
				var err error
				if j%2 == 0 {
					res, err = pool.Call(prog.Entry, p.Args...)
				} else {
					res, err = getCallPut(pool, &inUse, prog.Entry, p.Args)
				}
				if err != nil {
					errs <- err
					return
				}
				if len(res) != 1 || res[0] != *p.Want {
					errs <- &workloadMismatch{got: res, want: *p.Want}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := uint64(workers * perWorker)
	if pool.Runs() != total {
		t.Fatalf("Runs = %d, want %d", pool.Runs(), total)
	}
	agg := pool.Metrics()
	if agg.Instructions != total*one.Instructions {
		t.Errorf("Instructions = %d, want %d", agg.Instructions, total*one.Instructions)
	}
	if agg.Cycles != total*one.Cycles {
		t.Errorf("Cycles = %d, want %d", agg.Cycles, total*one.Cycles)
	}
	if n := fpc.KeptMachines(pool); n != 0 {
		t.Errorf("%d kept machines after the pool was released", n)
	}
}

// getCallPut runs one call through Get and Put, failing if the machine
// Get hands out is still checked out by another caller.
func getCallPut(pool *fpc.Pool, inUse *sync.Map, desc fpc.Word, args []fpc.Word) ([]fpc.Word, error) {
	m, err := pool.Get()
	if err != nil {
		return nil, err
	}
	if _, dup := inUse.LoadOrStore(m, struct{}{}); dup {
		return nil, errors.New("one machine handed to two callers")
	}
	res, err := m.Call(desc, args...)
	inUse.Delete(m)
	pool.Put(m)
	return res, err
}

type workloadMismatch struct {
	got  []fpc.Word
	want fpc.Word
}

func (e *workloadMismatch) Error() string { return "workload result mismatch" }

// TestPoolRelease: Release hands every idle machine's store on, yet the
// pool keeps serving. A machine checked out across the Release answers its
// call and is released when Put returns it; Get boots a new machine, which
// Put releases in turn, so however many calls a released pool serves it
// keeps no machine. The aggregate counts every run.
func TestPoolRelease(t *testing.T) {
	pool, p, prog := buildPool(t, fpc.ConfigFastCalls)
	if err := pool.Warm(3); err != nil {
		t.Fatal(err)
	}
	if n := fpc.KeptMachines(pool); n != 3 {
		t.Fatalf("%d kept machines after Warm(3)", n)
	}
	call := func(m *fpc.Machine) {
		t.Helper()
		res, err := m.Call(prog.Entry, p.Args...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0] != *p.Want {
			t.Fatalf("result %v, want %d", res, *p.Want)
		}
	}
	out, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	pool.Release()
	if n := fpc.KeptMachines(pool); n != 0 {
		t.Fatalf("%d kept machines after Release", n)
	}
	call(out)
	pool.Put(out)
	if out.Mem() != nil {
		t.Fatal("Put on a released pool kept the machine's store")
	}
	const after = 100
	for i := 0; i < after; i++ {
		m, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if m.Mem() == nil {
			t.Fatal("Get on a released pool handed out a released machine")
		}
		call(m)
		pool.Put(m)
		if m.Mem() != nil {
			t.Fatal("Put on a released pool kept the machine's store")
		}
		if n := fpc.KeptMachines(pool); n != 0 {
			t.Fatalf("%d kept machines on a released pool after %d calls", n, i+1)
		}
	}
	res, err := pool.Call(prog.Entry, p.Args...)
	if err != nil || len(res) != 1 || res[0] != *p.Want {
		t.Fatalf("Call on a released pool: %v, %v", res, err)
	}
	if got, want := pool.Runs(), uint64(after+2); got != want {
		t.Fatalf("Runs = %d, want %d", got, want)
	}
}

// TestPoolKeepsWarmedMachines: a pool holds past a GC only the machines
// Warm booted. Eight machines checked out at once come back, two are kept
// and the other six sit in the sync.Pool; after two GCs, eight Gets find
// the two kept machines and boot six new ones.
func TestPoolKeepsWarmedMachines(t *testing.T) {
	pool, _, _ := buildPool(t, fpc.ConfigFastCalls)
	if err := pool.Warm(2); err != nil {
		t.Fatal(err)
	}
	const n = 8
	getAll := func() []*fpc.Machine {
		t.Helper()
		ms := make([]*fpc.Machine, n)
		for i := range ms {
			m, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			ms[i] = m
		}
		return ms
	}
	first := getAll()
	for _, m := range first {
		pool.Put(m)
	}
	if k := fpc.KeptMachines(pool); k != 2 {
		t.Fatalf("%d kept machines after %d came back, want 2", k, n)
	}
	runtime.GC()
	runtime.GC()
	seen := make(map[*fpc.Machine]bool, n)
	for _, m := range first {
		seen[m] = true
	}
	again := 0
	for _, m := range getAll() {
		if seen[m] {
			again++
		}
		pool.Put(m)
	}
	if again != 2 {
		t.Fatalf("%d of %d machines outlived two GCs, want the 2 kept", again, n)
	}
}

// TestPoolGetPut exercises the manual checkout path and verifies that a
// machine handed back dirty comes out booted.
func TestPoolGetPut(t *testing.T) {
	pool, p, prog := buildPool(t, fpc.ConfigFastFetch)
	m1, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Call(prog.Entry, p.Args...); err != nil {
		t.Fatal(err)
	}
	pool.Put(m1)
	m2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Metrics().Instructions; got != 0 {
		t.Fatalf("recycled machine not reset: %d instructions on the clock", got)
	}
	if len(m2.Output) != 0 {
		t.Fatalf("recycled machine kept output %v", m2.Output)
	}
	res, err := m2.Call(prog.Entry, p.Args...)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != *p.Want {
		t.Fatalf("recycled machine computed %v", res)
	}
	pool.Put(m2)
}

// TestPoolCallOutput: per-run output records come back per call, not
// accumulated across pooled runs.
func TestPoolCallOutput(t *testing.T) {
	prog, err := fpc.Build(map[string]string{"m": `
module m;
proc main(n) { out(n); out(n+1); return n; }
`}, "m", "main", fpc.LinkOptions{EarlyBind: true})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := fpc.NewPool(prog, fpc.ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	for i := fpc.Word(1); i <= 3; i++ {
		cr, err := pool.CallContext(context.Background(), prog.Entry, 0, time.Time{}, i)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Results[0] != i {
			t.Fatalf("result %v", cr.Results)
		}
		if !reflect.DeepEqual(cr.Output, []fpc.Word{i, i + 1}) {
			t.Fatalf("output %v for n=%d", cr.Output, i)
		}
	}
}

// TestPoolCallBudgetRunaway: the per-request budget must cut an infinite
// loop compiled from the source language under every configuration, wrap
// ErrMaxSteps, account the cut run in the pool aggregate, and leave the
// pool serving correct results afterwards — differentially identical to a
// fresh machine.
func TestPoolCallBudgetRunaway(t *testing.T) {
	configs := map[string]fpc.Config{
		"mesa":      fpc.ConfigMesa,
		"fastfetch": fpc.ConfigFastFetch,
		"fastcalls": fpc.ConfigFastCalls,
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			pool, _ := buildServingPool(t, cfg)
			forever, err := pool.Image().Program().FindProc("srv", "forever")
			if err != nil {
				t.Fatal(err)
			}
			fib, err := pool.Image().Program().FindProc("srv", "fib")
			if err != nil {
				t.Fatal(err)
			}
			const budget = 50_000
			if _, err := pool.CallContext(context.Background(), forever, budget, time.Time{}); !errors.Is(err, core.ErrMaxSteps) {
				t.Fatalf("err = %v, want ErrMaxSteps", err)
			}
			if got := pool.Metrics().Instructions; got != budget {
				t.Fatalf("aggregate accounts %d instructions for the cut run, want %d", got, budget)
			}
			if pool.Runs() != 1 {
				t.Fatalf("Runs = %d after a failed run, want 1", pool.Runs())
			}

			// The recycled machine must now serve a call exactly like a
			// machine that never ran the runaway.
			fresh, err := pool.Image().NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			wantRes, err := fresh.Call(fib, 12)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pool.Call(fib, 12)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("post-runaway results %v, want %v", res, wantRes)
			}
			agg := pool.Metrics()
			want := fresh.Metrics()
			if agg.Instructions != budget+want.Instructions {
				t.Fatalf("aggregate = %d instructions, want %d (cut run + clean run)",
					agg.Instructions, budget+want.Instructions)
			}
		})
	}
}

// TestPoolPutAfterFailedCall: a machine handed back after a failed run
// must come out of the pool byte-identical to a fresh boot — same
// results, same metrics, same store bytes on its next run.
func TestPoolPutAfterFailedCall(t *testing.T) {
	pool, _ := buildServingPool(t, fpc.ConfigFastCalls)
	failp, err := pool.Image().Program().FindProc("srv", "fail")
	if err != nil {
		t.Fatal(err)
	}
	fib, err := pool.Image().Program().FindProc("srv", "fib")
	if err != nil {
		t.Fatal(err)
	}
	m, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(failp, 0); err == nil { // 100/0 traps
		t.Fatal("dividing by zero succeeded")
	}
	pool.Put(m)

	m2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Call(fib, 11)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := pool.Image().NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Call(fib, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled results %v, want %v", got, want)
	}
	if !reflect.DeepEqual(m2.Metrics(), fresh.Metrics()) {
		t.Fatal("recycled machine's metrics diverged from a fresh machine's")
	}
	if !reflect.DeepEqual(m2.Mem().PeekRange(0, mem.Size), fresh.Mem().PeekRange(0, mem.Size)) {
		t.Fatal("recycled machine's store bytes diverged from a fresh machine's")
	}
	pool.Put(m2)
}

// TestPoolPanicRecycles: a run that panics (here through a panicking
// Go-level Config.Trap handler) must still hand its machine back to the
// pool with its metrics merged, then re-panic. Before the deferred
// recycle, a panicking run skipped Put, permanently consuming a pooled
// machine and silently dropping its work from the aggregate.
func TestPoolPanicRecycles(t *testing.T) {
	cfg := fpc.ConfigFastCalls
	cfg.Trap = func(m *fpc.Machine, code int) error { panic("trap handler exploded") }
	prog, err := fpc.Build(map[string]string{"srv": servingSrc}, "srv", "main", fpc.DefaultLinkOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := fpc.NewPool(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	failp, err := pool.Image().Program().FindProc("srv", "fail")
	if err != nil {
		t.Fatal(err)
	}
	fib, err := pool.Image().Program().FindProc("srv", "fib")
	if err != nil {
		t.Fatal(err)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the run's panic did not propagate through Pool.Call")
			}
		}()
		pool.Call(failp, 0) // 100/0 traps; the Go trap handler panics
	}()

	if pool.Runs() != 1 {
		t.Fatalf("Runs = %d after a panicking run, want 1 (machine leaked)", pool.Runs())
	}
	if pool.Metrics().Instructions == 0 {
		t.Fatal("panicking run's work missing from the pool aggregate")
	}

	// The recycled machine serves the next call exactly like a fresh boot.
	fresh, err := pool.Image().NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Call(fib, 11)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Call(fib, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-panic results %v, want %v", got, want)
	}
}

// TestPoolCallContext: a context deadline, a deadline alone and a
// canceled context each cut a runaway run with ErrCanceled naming the
// cause; the CallResult still carries the partial work's counters, the
// same ones the pool merged into its aggregate.
func TestPoolCallContext(t *testing.T) {
	pool, _ := buildServingPool(t, fpc.ConfigFastCalls)
	forever, err := pool.Image().Program().FindProc("srv", "forever")
	if err != nil {
		t.Fatal(err)
	}
	timeout, cancelTimeout := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancelTimeout()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var steps, cycles, refs uint64
	for _, c := range []struct {
		name  string
		ctx   context.Context
		after time.Duration // the deadline, from the call; 0 sets none
		cause error
	}{
		{"context deadline", timeout, 0, context.DeadlineExceeded},
		{"deadline alone", context.Background(), 30 * time.Millisecond, context.DeadlineExceeded},
		{"canceled context", canceled, time.Hour, context.Canceled},
	} {
		var deadline time.Time
		if c.after > 0 {
			deadline = time.Now().Add(c.after)
		}
		cr, err := pool.CallContext(c.ctx, forever, 0, deadline)
		if !errors.Is(err, core.ErrCanceled) || !strings.HasSuffix(err.Error(), c.cause.Error()) {
			t.Fatalf("%s: err = %v, want ErrCanceled: %v", c.name, err, c.cause)
		}
		if cr == nil || (cr.Steps == 0) != (c.cause == context.Canceled) {
			t.Fatalf("%s: counters %+v; only a context canceled before the run ends it at the first probe", c.name, cr)
		}
		steps, cycles, refs = steps+cr.Steps, cycles+cr.Cycles, refs+cr.Refs
		if agg := pool.Metrics(); agg.Instructions != steps || agg.Cycles != cycles || agg.ChargedRefs != refs {
			t.Fatalf("%s: aggregate %d/%d/%d != summed per-call %d/%d/%d",
				c.name, agg.Instructions, agg.Cycles, agg.ChargedRefs, steps, cycles, refs)
		}
	}

	// A budget and a live context compose: the budget cuts first here.
	cr, err := pool.CallContext(context.Background(), forever, 10_000, time.Now().Add(time.Hour))
	if !errors.Is(err, core.ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	if cr.Steps != 10_000 {
		t.Fatalf("budgeted run did %d instructions, want 10000", cr.Steps)
	}
}

// TestPoolCallNamedOutput: a procedure resolved by name through the
// image's FindProc runs on the pool and returns its per-run output record;
// an unknown name is refused by FindProc.
func TestPoolCallNamedOutput(t *testing.T) {
	pool, prog := buildServingPool(t, fpc.ConfigFastCalls)
	emit, err := prog.FindProc("srv", "emit")
	if err != nil {
		t.Fatal(err)
	}
	cr, err := pool.CallContext(context.Background(), emit, 0, time.Time{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Results) != 1 || cr.Results[0] != 7 {
		t.Fatalf("results %v", cr.Results)
	}
	if !reflect.DeepEqual(cr.Output, []fpc.Word{7, 8}) {
		t.Fatalf("output %v", cr.Output)
	}
	if _, err := prog.FindProc("srv", "nothere"); err == nil {
		t.Fatal("missing proc accepted")
	}
}

// TestPoolSharedImageIdentity: machines from one pool share one image.
func TestPoolSharedImageIdentity(t *testing.T) {
	pool, _, _ := buildPool(t, fpc.ConfigMesa)
	m1, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if m1.Image() != pool.Image() || m2.Image() != pool.Image() {
		t.Fatal("pooled machines do not share the pool's image")
	}
	pool.Put(m1)
	pool.Put(m2)
}
