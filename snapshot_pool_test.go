package fpc_test

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	fpc "repro"
	"repro/internal/snapshot"
)

// parkSrc dirties every state a continuation must own: frame-heap records
// written in a loop (dirty memory windows), an OUT stream, and nested
// calls keeping the frame chain and register banks live at the park point.
const parkSrc = `
module park;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc work(n) {
  var a = alloc(8);
  var i = 0;
  var acc = 0;
  while (i < n) {
    store(a + (i & 7), i * 3 + fib(6));
    out(load(a + (i & 7)));
    acc = acc + load(a + (i & 7));
    i = i + 1;
  }
  dealloc(a);
  return acc & 0x7FFF;
}
proc main(n) { return work(n); }
`

// TestPoolPutAfterSnapshotNoAliasing is the machine-recycling hazard pinned
// as a regression test: a continuation parked off a pooled machine must own
// every byte it carries, because Pool.Put immediately resets the machine
// and hands it to other requests. If Snapshot shared anything with the
// machine — the dirty-window copies, the output record, the heap or
// register state — the reuse below would corrupt the parked session and
// the resumed run would diverge from the uninterrupted one.
func TestPoolPutAfterSnapshotNoAliasing(t *testing.T) {
	cfg := fpc.ConfigFastCalls
	prog, err := fpc.Build(map[string]string{"park": parkSrc}, "park", "main", fpc.DefaultLinkOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	img, err := fpc.LoadImage(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	desc := img.Entry()
	fibDesc, err := img.Program().FindProc("park", "fib")
	if err != nil {
		t.Fatal(err)
	}

	// Golden: the same call uninterrupted on a private machine.
	golden, err := img.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := golden.Call(desc, 20)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := append([]fpc.Word(nil), golden.Output...)
	wantMet := golden.Metrics()
	total := wantMet.Instructions

	// Park mid-run on a pooled machine.
	pool := fpc.NewPoolFromImage(img)
	m, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(desc, 20); err != nil {
		t.Fatal(err)
	}
	m.SetRunBudget(total / 2)
	if err := m.Run(); !errors.Is(err, fpc.ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	cont, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The encoded form is the continuation's byte-exact fingerprint; any
	// aliasing shows up as a fingerprint change after the machine moves on.
	fingerprint := snapshot.Encode(cont)

	// Recycle the parked machine and run unrelated traffic on it. Get
	// should hand the just-put machine back; if the runtime hands a fresh
	// one, dirty it too — the continuation must survive either way.
	pool.Put(m)
	reused, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if reused != m {
		t.Logf("pool handed back a different machine; dirtying both paths")
	}
	if _, err := reused.Call(fibDesc, 15); err != nil {
		t.Fatal(err)
	}
	pool.Put(reused)
	if _, err := pool.Call(desc, 7); err != nil { // different args, same dirty windows
		t.Fatal(err)
	}

	if got := snapshot.Encode(cont); !bytes.Equal(got, fingerprint) {
		t.Fatal("recycling the snapshotted machine mutated the parked continuation")
	}

	// The parked run resumes byte-identically on a fresh machine.
	resumed, err := img.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(cont); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	if !resumed.Halted() {
		t.Fatal("resumed run did not halt")
	}
	if got := resumed.Results(); !reflect.DeepEqual(got, wantRes) {
		t.Fatalf("resumed results %v, uninterrupted %v", got, wantRes)
	}
	if got := append([]fpc.Word(nil), resumed.Output...); !reflect.DeepEqual(got, wantOut) {
		t.Fatalf("resumed output %v, uninterrupted %v", got, wantOut)
	}
	merged := &fpc.Metrics{}
	merged.Merge(cont.Metrics)
	merged.Merge(resumed.Metrics())
	if !reflect.DeepEqual(merged, wantMet) {
		t.Fatalf("merged segment metrics diverge from the uninterrupted run:\nmerged %+v\nwant   %+v", merged, wantMet)
	}
}

// sliceSrc holds the timesliced processes: a recursive fib, and a
// coroutine generator whose two results main writes to its output.
const sliceSrc = `
module slice;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc gen(x) {
  var who = retctx();
  var y = transfer(who, x + 1);
  transfer(who, y * 2);
  return 0;
}
proc co() {
  var g = cocreate(gen);
  out(transfer(g, 5));
  out(transfer(g, 7));
  free(g);
  return 0;
}
`

// process is one timesliced procedure call and what it has produced.
type process struct {
	desc     fpc.Word
	args     []fpc.Word
	cont     *fpc.Continuation // parked state between slices; nil before the first
	done     bool
	results  []fpc.Word
	output   []fpc.Word
	metrics  *fpc.Metrics // merged over every slice
	segments int
}

// runSlice runs p for up to slice instructions on a machine from pool:
// Start on its first slice, Restore after. A slice the budget cuts parks p
// into a continuation before the machine goes back to the pool.
func runSlice(pool *fpc.Pool, p *process, slice uint64) error {
	m, err := pool.Get()
	if err != nil {
		return err
	}
	defer pool.Put(m)
	if p.cont == nil {
		err = m.Start(p.desc, p.args...)
	} else {
		err = m.Restore(p.cont)
	}
	if err != nil {
		return err
	}
	m.SetRunBudget(slice)
	err = m.Run()
	p.metrics.Merge(m.Metrics())
	p.segments++
	switch {
	case err == nil:
		p.done = true
		p.results = m.Results()
		p.output = append([]fpc.Word(nil), m.Output...)
		return nil
	case errors.Is(err, fpc.ErrMaxSteps):
		p.cont, err = m.Snapshot()
		return err
	}
	return err
}

// TestPoolTimesliceStress switches processes the way §3 lets any context
// switch: park one into a continuation, resume another. Eight goroutines
// each run the same six processes round-robin over one shared pool, 64
// instructions a slice, every slice on whichever machine the pool hands
// out. Every process must end byte-identical to its uninterrupted run —
// results, output and merged metrics — and the pool's aggregate must
// equal the sum of every process's metrics.
func TestPoolTimesliceStress(t *testing.T) {
	cfg := fpc.ConfigFastCalls
	prog, err := fpc.Build(map[string]string{"slice": sliceSrc}, "slice", "co", fpc.DefaultLinkOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	img, err := fpc.LoadImage(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := []struct {
		proc string
		args []fpc.Word
	}{
		{"fib", []fpc.Word{14}},
		{"fib", []fpc.Word{11}},
		{"co", nil},
		{"fib", []fpc.Word{8}},
		{"co", nil},
		{"fib", []fpc.Word{13}},
	}
	// newProcesses returns the six processes, not yet started.
	newProcesses := func() []*process {
		ps := make([]*process, len(specs))
		for i, sp := range specs {
			desc, err := img.Program().FindProc("slice", sp.proc)
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = &process{desc: desc, args: sp.args, metrics: &fpc.Metrics{}}
		}
		return ps
	}

	// Each process uninterrupted, on a private machine.
	want := newProcesses()
	for _, p := range want {
		m, err := img.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		if p.results, err = m.Call(p.desc, p.args...); err != nil {
			t.Fatal(err)
		}
		p.output = append([]fpc.Word(nil), m.Output...)
		p.metrics = m.Metrics()
	}

	pool := fpc.NewPoolFromImage(img)
	const workers = 8
	got := make([][]*process, workers)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = newProcesses()
		wg.Add(1)
		go func(ps []*process) {
			defer wg.Done()
			for running := len(ps); running > 0; {
				for _, p := range ps {
					if p.done {
						continue
					}
					if err := runSlice(pool, p, 64); err != nil {
						t.Error(err)
						return
					}
					if p.done {
						running--
					}
				}
			}
		}(got[g])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	merged := &fpc.Metrics{}
	var segments int
	for g, ps := range got {
		for i, p := range ps {
			w := want[i]
			if !reflect.DeepEqual(p.results, w.results) {
				t.Fatalf("worker %d process %d: results %v, uninterrupted %v", g, i, p.results, w.results)
			}
			if !reflect.DeepEqual(p.output, w.output) {
				t.Fatalf("worker %d process %d: output %v, uninterrupted %v", g, i, p.output, w.output)
			}
			if !reflect.DeepEqual(p.metrics, w.metrics) {
				t.Fatalf("worker %d process %d: merged slice metrics diverge from the uninterrupted run", g, i)
			}
			merged.Merge(p.metrics)
			segments += p.segments
		}
	}
	if segments == workers*len(specs) {
		t.Fatal("no process was ever parked; the stress proves nothing")
	}
	if got := pool.Runs(); got != uint64(segments) {
		t.Fatalf("pool ran %d segments, the workers account %d", got, segments)
	}
	if !reflect.DeepEqual(pool.Metrics(), merged) {
		t.Fatal("pool aggregate diverges from the sum of per-process metrics")
	}
}
