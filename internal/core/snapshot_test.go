package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
)

// trapModule installs an in-machine trap handler and traps through it, so
// a park can land while a trapSave is live on the machine.
func trapModule() *image.Module {
	mod := &image.Module{Name: "tm"}
	handler := &image.Proc{Name: "handler", NumArgs: 1, NumLocals: 1}
	{
		var a image.Asm
		a.Emit(isa.LL0)
		a.Emit(isa.LI2)
		a.Emit(isa.MUL)
		a.Emit(isa.RET)
		handler.Body = a.Fragment()
	}
	main := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 0}
	{
		var a image.Asm
		a.EmitLoadLocalDesc(1)
		a.Emit(isa.STRAP)
		a.Emit(isa.LIB, 21)
		a.Emit(isa.TRAPB, 33) // handler(33) = 66 above the saved 21
		a.Emit(isa.ADD)
		a.Emit(isa.RET)
		main.Body = a.Fragment()
	}
	mod.Procs = []*image.Proc{main, handler}
	return mod
}

// uninterrupted runs module.proc(args) on a fresh machine and returns the
// machine (halted) plus its results and error.
func uninterrupted(t *testing.T, img *LoadedImage, args ...mem.Word) (*Machine, []mem.Word) {
	t.Helper()
	m, err := img.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Call(img.Entry(), args...)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// runSegmented runs the image's entry across len(cuts)+1 machines: each
// cut is an absolute instruction count at which the running segment is
// parked with Snapshot and the continuation carried to a fresh machine.
// It returns the final (halted) machine and the merge of every segment's
// metrics, which must be byte-identical to an uninterrupted run's.
func runSegmented(t *testing.T, img *LoadedImage, cuts []uint64, args ...mem.Word) (*Machine, *Metrics) {
	t.Helper()
	m, err := img.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	merged := &Metrics{}
	var c *Continuation
	prev := uint64(0)
	for i, cut := range cuts {
		if cut <= prev {
			t.Fatalf("cuts must be ascending: %v", cuts)
		}
		m.SetRunBudget(cut - prev)
		if i == 0 {
			_, err = m.Call(img.Entry(), args...)
		} else {
			err = m.Run()
		}
		if !errors.Is(err, ErrMaxSteps) {
			t.Fatalf("segment %d: err = %v, want ErrMaxSteps at instruction %d", i, err, cut)
		}
		if c, err = m.Snapshot(); err != nil {
			t.Fatalf("segment %d: Snapshot: %v", i, err)
		}
		merged.Merge(c.Metrics)
		if m, err = img.NewMachine(); err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(c); err != nil {
			t.Fatalf("segment %d: Restore: %v", i, err)
		}
		prev = cut
	}
	if err := m.Run(); err != nil {
		t.Fatalf("final segment: %v", err)
	}
	merged.Merge(m.Metrics())
	return m, merged
}

// compareRuns asserts the segmented run is byte-identical to the
// uninterrupted one: results, OUT stream, halt state, the whole store,
// the heap's register state, and the merged per-segment metrics.
func compareRuns(t *testing.T, want, got *Machine, wantRes []mem.Word, gotMetrics *Metrics) {
	t.Helper()
	if !got.Halted() {
		t.Fatal("segmented run did not halt")
	}
	if !reflect.DeepEqual(got.Results(), wantRes) {
		t.Fatalf("results = %v, want %v", got.Results(), wantRes)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Fatalf("output = %v, want %v", got.Output, want.Output)
	}
	if !reflect.DeepEqual(gotMetrics, want.Metrics()) {
		t.Fatalf("merged segment metrics diverge from the uninterrupted run:\n got %+v\nwant %+v", gotMetrics, want.Metrics())
	}
	if !reflect.DeepEqual(got.Mem().PeekRange(0, mem.Size), want.Mem().PeekRange(0, mem.Size)) {
		t.Fatal("segmented run's store diverges from the uninterrupted run's")
	}
	if got.Heap().Stats() != want.Heap().Stats() {
		t.Fatalf("heap stats = %+v, want %+v", got.Heap().Stats(), want.Heap().Stats())
	}
}

// TestSnapshotRestoreByteIdentical: a run cut into three segments, each
// resumed on a different machine over the same image, must be
// byte-identical to the run that was never interrupted — under every
// machine configuration.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	progs := map[string]*image.Program{
		"fib":  linkOne(t, fibModule(), "main", linker.Options{}),
		"coro": linkOne(t, coroutineModule(), "main", linker.Options{}),
		"trap": linkOne(t, trapModule(), "main", linker.Options{}),
	}
	args := map[string][]mem.Word{"fib": {14}}
	for pname, prog := range progs {
		for cname, cfg := range allConfigs() {
			cfg.HeapCheck = true
			t.Run(pname+"/"+cname, func(t *testing.T) {
				img, err := LoadImage(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, wantRes := uninterrupted(t, img, args[pname]...)
				total := want.Metrics().Instructions
				if total < 3 {
					t.Fatalf("trivial program: %d instructions", total)
				}
				got, gotMetrics := runSegmented(t, img, []uint64{total / 3, 2 * total / 3}, args[pname]...)
				compareRuns(t, want, got, wantRes, gotMetrics)
				if err := got.Heap().CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSnapshotEveryBoundary parks at every single instruction boundary of
// the coroutine and trap programs — including mid-coroutine (a suspended
// context live in the heap) and mid-trap (a trapSave holding the
// trapper's partial stack) — and requires the resumed run to be
// byte-identical each time.
func TestSnapshotEveryBoundary(t *testing.T) {
	cases := map[string]*image.Program{
		"coro": linkOne(t, coroutineModule(), "main", linker.Options{}),
		"trap": linkOne(t, trapModule(), "main", linker.Options{}),
	}
	for pname, prog := range cases {
		t.Run(pname, func(t *testing.T) {
			img, err := LoadImage(prog, ConfigFastCalls)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRes := uninterrupted(t, img)
			total := want.Metrics().Instructions
			sawTrapSave := false
			for k := uint64(1); k < total; k++ {
				got, gotMetrics := runSegmented(t, img, []uint64{k})
				compareRuns(t, want, got, wantRes, gotMetrics)
				// Peek at the park point to confirm the sweep really
				// crossed a live trapSave at some boundary.
				m, err := img.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				m.SetRunBudget(k)
				if _, err := m.Call(img.Entry()); !errors.Is(err, ErrMaxSteps) {
					t.Fatalf("cut %d: %v", k, err)
				}
				c, err := m.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if len(c.TrapSaves) > 0 {
					sawTrapSave = true
				}
			}
			if pname == "trap" && !sawTrapSave {
				t.Fatal("no park point ever crossed a live trapSave; the mid-trap case is untested")
			}
		})
	}
}

// TestSnapshotLeavesSourceRunnable: Snapshot must not perturb the source
// machine — it can keep running to an end state identical to the
// uninterrupted run's, while the continuation stays independently valid.
func TestSnapshotLeavesSourceRunnable(t *testing.T) {
	prog := linkOne(t, fibModule(), "main", linker.Options{})
	img, err := LoadImage(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRes := uninterrupted(t, img, 12)

	m, err := img.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	cut := want.Metrics().Instructions / 2
	m.SetRunBudget(cut)
	if _, err := m.Call(img.Entry(), 12); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	c, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The source continues as if nothing happened.
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Results(), wantRes) {
		t.Fatalf("source results = %v, want %v", m.Results(), wantRes)
	}
	if !reflect.DeepEqual(m.Metrics(), want.Metrics()) {
		t.Fatal("source metrics diverged after Snapshot")
	}

	// The continuation is reusable: restore it twice, on the (now dirty)
	// source machine and on a fresh one; both complete identically.
	for i := 0; i < 2; i++ {
		target := m
		if i == 1 {
			if target, err = img.NewMachine(); err != nil {
				t.Fatal(err)
			}
		}
		if err := target.Restore(c); err != nil {
			t.Fatal(err)
		}
		if err := target.Run(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(target.Results(), wantRes) {
			t.Fatalf("restore %d: results = %v, want %v", i, target.Results(), wantRes)
		}
		merged := c.Metrics.Clone()
		merged.Merge(target.Metrics())
		if !reflect.DeepEqual(merged, want.Metrics()) {
			t.Fatalf("restore %d: merged metrics diverge", i)
		}
	}
}

// TestSnapshotOfHaltedMachine: a halted context is a continuation too —
// restoring it reproduces the results without running anything.
func TestSnapshotOfHaltedMachine(t *testing.T) {
	prog := linkOne(t, coroutineModule(), "main", linker.Options{})
	img, err := LoadImage(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRes := uninterrupted(t, img)
	c, err := want.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Fatal("continuation of a halted machine is not halted")
	}
	m, err := img.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(c); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("restored machine is not halted")
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run on a restored halted machine: %v", err)
	}
	if !reflect.DeepEqual(m.Results(), wantRes) || !reflect.DeepEqual(m.Output, want.Output) {
		t.Fatal("halted continuation did not carry results and output")
	}
}

// TestRestoreRejectsMismatch: a continuation must only land on a machine
// over the same image with the same configuration, and a corrupted
// capture must be refused before it touches machine state.
func TestRestoreRejectsMismatch(t *testing.T) {
	fib := linkOne(t, fibModule(), "main", linker.Options{})
	coro := linkOne(t, coroutineModule(), "main", linker.Options{})

	imgFib, err := LoadImage(fib, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	m, err := imgFib.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	m.SetRunBudget(20)
	if _, err := m.Call(imgFib.Entry(), 10); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v", err)
	}
	c, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Wrong image.
	imgCoro, err := LoadImage(coro, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	other, err := imgCoro.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(c); !errors.Is(err, ErrBadContinuation) {
		t.Fatalf("wrong image: err = %v, want ErrBadContinuation", err)
	}

	// Same image, different machine configuration.
	imgMesa, err := LoadImage(fib, ConfigMesa)
	if err != nil {
		t.Fatal(err)
	}
	mesa, err := imgMesa.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := mesa.Restore(c); !errors.Is(err, ErrBadContinuation) {
		t.Fatalf("wrong config: err = %v, want ErrBadContinuation", err)
	}

	// Corrupted captures.
	target, err := imgFib.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	bad := *c
	bad.Stack = make([]mem.Word, EvalStackDepth+1)
	if err := target.Restore(&bad); !errors.Is(err, ErrBadContinuation) {
		t.Fatalf("oversized stack: err = %v, want ErrBadContinuation", err)
	}
	bad = *c
	bad.MemLo = mem.Size
	bad.MemWords = make([]mem.Word, 4)
	if err := target.Restore(&bad); !errors.Is(err, ErrBadContinuation) {
		t.Fatalf("out-of-range delta: err = %v, want ErrBadContinuation", err)
	}

	// The intact continuation still restores and completes on a machine
	// that saw the rejections.
	if err := target.Restore(c); err != nil {
		t.Fatal(err)
	}
	if err := target.Run(); err != nil {
		t.Fatal(err)
	}
	if res := target.Results(); len(res) != 1 || res[0] != 55 {
		t.Fatalf("fib(10) via continuation = %v, want [55]", res)
	}
}
