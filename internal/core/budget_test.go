package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
)

// spinModule is a deliberately infinite loop: a single JB jumping to
// itself. Only a budget, cancellation, or MaxSteps can end the run.
func spinModule() *image.Module {
	main := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 0}
	var a image.Asm
	top := a.NewLabel()
	a.Bind(top)
	a.EmitJump(isa.JB, top)
	main.Body = a.Fragment()
	return &image.Module{Name: "spin", Procs: []*image.Proc{main}}
}

// TestRunBudgetCutsRunaway: a per-run budget must cut an infinite loop
// under every configuration, report ErrMaxSteps, and leave the machine
// Reset-able into a state identical to a fresh boot.
func TestRunBudgetCutsRunaway(t *testing.T) {
	configs := map[string]Config{
		"mesa":      ConfigMesa,
		"fastfetch": ConfigFastFetch,
		"fastcalls": ConfigFastCalls,
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			prog := linkOne(t, spinModule(), "main", linker.Options{})
			img, err := LoadImage(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := img.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			const budget = 10_000
			m.SetRunBudget(budget)
			if _, err := m.Call(prog.Entry, nil...); !errors.Is(err, ErrMaxSteps) {
				t.Fatalf("err = %v, want ErrMaxSteps", err)
			}
			if got := m.Metrics().Instructions; got != budget {
				t.Fatalf("cut after %d instructions, want exactly %d", got, budget)
			}

			// The machine must come back to boot state: a second budgeted
			// run after Reset is identical to a fresh machine's.
			m.Reset()
			if m.RunBudget() != 0 {
				t.Fatal("Reset kept the run budget")
			}
			m.SetRunBudget(budget)
			_, err1 := m.Call(prog.Entry)
			fresh, err := img.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			fresh.SetRunBudget(budget)
			_, err2 := fresh.Call(prog.Entry)
			if !errors.Is(err1, ErrMaxSteps) || !errors.Is(err2, ErrMaxSteps) {
				t.Fatalf("errs = %v / %v, want ErrMaxSteps", err1, err2)
			}
			if !reflect.DeepEqual(m.Metrics(), fresh.Metrics()) {
				t.Fatal("reused machine's budgeted run diverged from a fresh machine's")
			}
			if !reflect.DeepEqual(m.Mem().PeekRange(0, mem.Size), fresh.Mem().PeekRange(0, mem.Size)) {
				t.Fatal("reused machine's store diverged from a fresh machine's")
			}
		})
	}
}

// TestRunBudgetRespectsGlobalMax: the per-run budget can only tighten the
// machine-global MaxSteps, never loosen it.
func TestRunBudgetRespectsGlobalMax(t *testing.T) {
	cfg := ConfigFastCalls
	cfg.MaxSteps = 5_000
	prog := linkOne(t, spinModule(), "main", linker.Options{})
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRunBudget(1_000_000)
	if _, err := m.Call(prog.Entry); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	if got := m.Metrics().Instructions; got != 5_000 {
		t.Fatalf("cut after %d instructions, want the global 5000", got)
	}
}

// finiteModule is a straight-line program of n NOOPs and a HALT — a run
// executes exactly n+1 instructions and stops.
func finiteModule(n int) *image.Module {
	main := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 0}
	var a image.Asm
	for i := 0; i < n; i++ {
		a.Emit(isa.NOOP)
	}
	a.Emit(isa.HALT)
	main.Body = a.Fragment()
	return &image.Module{Name: "fin", Procs: []*image.Proc{main}}
}

// TestRunBudgetHugeNoOverflow: a budget near ^uint64(0) must behave as
// "effectively unlimited", not wrap. Before the overflow guard,
// Instructions + runBudget wrapped to Instructions-2 once a prior run had
// accumulated a couple of instructions, making the limit tiny and failing
// a healthy run with a spurious ErrMaxSteps.
func TestRunBudgetHugeNoOverflow(t *testing.T) {
	prog := linkOne(t, finiteModule(40), "main", linker.Options{})
	m, err := New(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	// Accumulate instructions so the wrapped sum lands below Instructions.
	if _, err := m.Call(prog.Entry); err != nil {
		t.Fatal(err)
	}
	before := m.Metrics().Instructions
	m.SetRunBudget(^uint64(0) - 1)
	if _, err := m.Call(prog.Entry); err != nil {
		t.Fatalf("huge budget failed a healthy run: %v", err)
	}
	if got := m.Metrics().Instructions; got != 2*before {
		t.Fatalf("second run executed %d instructions, want %d", got-before, before)
	}
}

// TestRunCancel: the cancellation probe is checked on the periodic
// boundary; its error comes back wrapped in ErrCanceled, and Reset clears
// the probe.
func TestRunCancel(t *testing.T) {
	prog := linkOne(t, spinModule(), "main", linker.Options{})
	m, err := New(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("deadline blew")
	probes := 0
	m.SetCancel(hookFunc(func() error {
		probes++
		if probes > 3 {
			return sentinel
		}
		return nil
	}))
	_, err = m.Call(prog.Entry)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Probes fire at instruction counts 0, 1024, 2048, 3072; the fourth
	// probe cancels, so exactly 3*cancelCheckInterval steps ran.
	if got := m.Metrics().Instructions; got != 3*cancelCheckInterval {
		t.Fatalf("canceled after %d instructions, want %d", got, 3*cancelCheckInterval)
	}
	m.Reset()
	if m.cancel != nil {
		t.Fatal("Reset kept the cancellation probe")
	}
}

// TestRunCancelArmedMidstream: SetCancel arms a countdown from the current
// instruction count, so the first probe fires immediately and every later
// probe within one cancelCheckInterval — even when arming happens at an
// unaligned count. The old modulo probe only fired when Instructions was
// an exact multiple of the interval, so a short run armed at an unaligned
// count could finish without ever being probed.
func TestRunCancelArmedMidstream(t *testing.T) {
	prog := linkOne(t, finiteModule(40), "main", linker.Options{})
	m, err := New(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(prog.Entry); err != nil { // 41 instructions: unaligned
		t.Fatal(err)
	}
	armedAt := m.Metrics().Instructions
	sentinel := errors.New("canceled now")
	m.SetCancel(hookFunc(func() error { return sentinel }))
	if _, err := m.Call(prog.Entry); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled (probe skipped at unaligned count)", err)
	}
	if got := m.Metrics().Instructions; got != armedAt {
		t.Fatalf("cut after %d extra instructions, want 0 (immediate probe)", got-armedAt)
	}
}

// TestRunCancelWithinOneInterval: once armed, the gap between consecutive
// probes is exactly cancelCheckInterval instructions regardless of the
// (unaligned) count at which the probe was armed.
func TestRunCancelWithinOneInterval(t *testing.T) {
	prog := linkOne(t, spinModule(), "main", linker.Options{})
	m, err := New(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRunBudget(50)
	if _, err := m.Call(prog.Entry); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	m.SetRunBudget(0)
	sentinel := errors.New("second probe cancels")
	probes := 0
	m.SetCancel(hookFunc(func() error {
		probes++
		if probes >= 2 {
			return sentinel
		}
		return nil
	}))
	if err := m.Run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Probe 1 fires at 50 (arming), probe 2 one interval later.
	if got := m.Metrics().Instructions; got != 50+cancelCheckInterval {
		t.Fatalf("canceled at %d instructions, want %d", got, 50+cancelCheckInterval)
	}
}

// hookFunc adapts a function to the machine's cancel hook.
type hookFunc func() error

func (f hookFunc) Err() error { return f() }

// TestRunDeadline: a deadline alone cuts a runaway run at a probe with
// ErrCanceled naming context.DeadlineExceeded; a deadline already past
// cuts it at the first probe, before any instruction; the cancel hook is
// asked before the deadline; and Reset clears the deadline.
func TestRunDeadline(t *testing.T) {
	prog := linkOne(t, spinModule(), "main", linker.Options{})
	m, err := New(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	m.SetDeadline(time.Now().Add(20 * time.Millisecond))
	_, err = m.Call(prog.Entry)
	if !errors.Is(err, ErrCanceled) || !strings.HasSuffix(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("err = %v, want ErrCanceled: context deadline exceeded", err)
	}
	if n := m.Metrics().Instructions; n == 0 || n%cancelCheckInterval != 0 {
		t.Fatalf("cut after %d instructions, want a positive multiple of %d", n, cancelCheckInterval)
	}

	m.Reset()
	if !m.deadline.IsZero() {
		t.Fatal("Reset kept the deadline")
	}
	m.SetDeadline(time.Now().Add(-time.Second))
	if _, err := m.Call(prog.Entry); !errors.Is(err, ErrCanceled) || m.Metrics().Instructions != 0 {
		t.Fatalf("past deadline: err %v after %d instructions, want ErrCanceled after 0", err, m.Metrics().Instructions)
	}

	m.Reset()
	sentinel := errors.New("hook first")
	m.SetDeadline(time.Now().Add(-time.Second))
	m.SetCancel(hookFunc(func() error { return sentinel }))
	if _, err := m.Call(prog.Entry); !errors.Is(err, ErrCanceled) || !strings.HasSuffix(err.Error(), sentinel.Error()) {
		t.Fatalf("err = %v, want the hook's error", err)
	}
}
