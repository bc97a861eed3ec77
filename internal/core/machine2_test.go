package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
	"repro/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	prog := linkOne(t, fibModule(), "main", linker.Options{})
	if _, err := New(prog, Config{RegBanks: 1}); err == nil {
		t.Error("single bank accepted")
	}
	if _, err := New(prog, Config{RegBanks: 4, BankWords: 2}); err == nil {
		t.Error("banks too small for linkage accepted")
	}
	if _, err := New(prog, Config{FreeFrameStack: 4, StdFrameWords: 100000}); err == nil {
		t.Error("standard frame beyond every class accepted")
	}
}

func TestMachineLevelTrapContext(t *testing.T) {
	// STRAP installs a handler context; TRAPB transfers to it and the
	// handler's return resumes the trapper with its result on the stack.
	mod := &image.Module{Name: "tm"}
	handler := &image.Proc{Name: "handler", NumArgs: 1, NumLocals: 1}
	{
		var a image.Asm
		a.Emit(isa.LL0) // the trap code
		a.Emit(isa.LI2)
		a.Emit(isa.MUL)
		a.Emit(isa.RET)
		handler.Body = a.Fragment()
	}
	main := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 0}
	{
		var a image.Asm
		a.EmitLoadLocalDesc(1) // handler's descriptor
		a.Emit(isa.STRAP)
		a.Emit(isa.LIB, 21)
		a.Emit(isa.TRAPB, 33) // handler(33) = 66, lands above the 21
		a.Emit(isa.ADD)       // 21 + 66
		a.Emit(isa.RET)
		main.Body = a.Fragment()
	}
	mod.Procs = []*image.Proc{main, handler}
	prog := linkOne(t, mod, "main", linker.Options{})
	for name, cfg := range allConfigs() {
		m, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.CallNamed("tm", "main")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res) != 1 || res[0] != 87 {
			t.Fatalf("%s: res = %v, want 87 (partial stack must survive the trap)", name, res)
		}
	}
}

func TestMachineReusableAcrossCalls(t *testing.T) {
	prog := linkOne(t, fibModule(), "main", linker.Options{})
	m, err := New(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := m.CallNamed("fib", "main", 10)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if res[0] != 55 {
			t.Fatalf("call %d: %v", i, res)
		}
	}
	// Metrics must accumulate monotonically across calls.
	if m.Metrics().Transfers[KindLocalCall] == 0 && m.Metrics().Transfers[KindDirectCall] == 0 {
		t.Fatal("no calls recorded")
	}
}

func TestFallbackFlushesEverything(t *testing.T) {
	prog := linkOne(t, fibModule(), "main", linker.Options{})
	m, err := New(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CallNamed("fib", "main", 8); err != nil {
		t.Fatal(err)
	}
	if err := m.Fallback(); err != nil {
		t.Fatal(err)
	}
	if m.banks.StackBank() >= 0 {
		t.Fatal("stack bank survived the fallback")
	}
	if m.rs.Len() != 0 {
		t.Fatal("return stack survived the fallback")
	}
	// The machine still runs afterwards.
	res, err := m.CallNamed("fib", "main", 9)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 34 {
		t.Fatalf("post-fallback fib(9) = %v", res)
	}
}

// TestFallbackFromTrapHandler: a Config.Trap handler that calls Fallback
// in mid-run flushes every bank, the running frame's included, and the
// trapping procedure must carry on from storage: its later local stores
// must not land in the bank the fallback freed, which the next call hands
// out again. Results and instruction count equal a run whose handler does
// nothing; only the flush traffic differs.
func TestFallbackFromTrapHandler(t *testing.T) {
	p := &workload.Program{
		Name: "fallback-trap",
		Sources: map[string]string{"fb": `
module fb;
proc g(x) { return x * 3 + 1; }
proc f(n, a, b) {
  if (n < 1) {
    var t = trap(7);
    t = t + a;
    var u = g(b);
    return a + b + t + u;
  }
  return f(n - 1, a + n, b + 2 * n) + f(n - 1, a ^ n, b + 1);
}
proc main(n) { return f(n, 1, 2); }
`},
		Module: "fb", Proc: "main", Args: []mem.Word{9},
	}
	prog, _, err := p.Build(linker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(trap func(*Machine, int) error) ([]mem.Word, *Metrics) {
		cfg := ConfigFastCalls
		cfg.Trap = trap
		m, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Call(prog.Entry, p.Args...)
		if err != nil {
			t.Fatal(err)
		}
		return res, m.Metrics()
	}
	wantRes, want := run(func(*Machine, int) error { return nil })
	gotRes, got := run(func(m *Machine, _ int) error { return m.Fallback() })
	if !reflect.DeepEqual(gotRes, wantRes) || got.Instructions != want.Instructions {
		t.Fatalf("with Fallback in the handler: %v in %d instructions, want %v in %d",
			gotRes, got.Instructions, wantRes, want.Instructions)
	}
	if got.BankFlushWords <= want.BankFlushWords {
		t.Fatalf("handler's Fallback flushed %d words, a no-op handler's run %d: nothing was flushed",
			got.BankFlushWords, want.BankFlushWords)
	}
	t.Logf("%v in %d instructions; %d against %d flushed words",
		gotRes, got.Instructions, got.BankFlushWords, want.BankFlushWords)
}

func TestMetricsIdentities(t *testing.T) {
	prog := linkOne(t, fibModule(), "main", linker.Options{})
	for name, cfg := range allConfigs() {
		m, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.CallNamed("fib", "main", 12); err != nil {
			t.Fatal(err)
		}
		mt := m.Metrics()
		// calls == returns on a program that runs to completion
		calls := mt.Transfers[KindExternalCall] + mt.Transfers[KindLocalCall] + mt.Transfers[KindDirectCall]
		if calls != mt.Transfers[KindReturn] {
			t.Fatalf("%s: %d calls vs %d returns", name, calls, mt.Transfers[KindReturn])
		}
		// per-kind histograms account for every transfer
		for _, k := range []TransferKind{KindExternalCall, KindLocalCall, KindDirectCall, KindReturn} {
			if mt.RefsPer[k].Count() != mt.Transfers[k] {
				t.Fatalf("%s: kind %v histogram %d vs count %d", name, k, mt.RefsPer[k].Count(), mt.Transfers[k])
			}
		}
		// the local-variable share of fib is total (no globals/pointers)
		if s := mt.LocalShare(); s != 1 {
			t.Fatalf("%s: LocalShare = %v", name, s)
		}
		if mt.RSHitRate() < 0 || mt.RSHitRate() > 1 || mt.FastFraction() > 1 {
			t.Fatalf("%s: rates out of range", name)
		}
	}
}

func TestBankFlushWritesDirtyWordsToStorage(t *testing.T) {
	// Force a bank overflow with deep recursion on few banks, then check
	// via the general return path that the flushed locals were correct:
	// if flush lost words, fib would compute the wrong answer.
	prog := linkOne(t, fibModule(), "main", linker.Options{})
	for _, banks := range []int{2, 3, 4} {
		m, err := New(prog, Config{RegBanks: banks, BankWords: 16, HeapCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.CallNamed("fib", "main", 13)
		if err != nil {
			t.Fatalf("banks=%d: %v", banks, err)
		}
		if res[0] != 233 {
			t.Fatalf("banks=%d: fib(13) = %v (bank flush corrupted a frame)", banks, res)
		}
		if banks <= 3 && m.Metrics().BankOverflows == 0 {
			t.Fatalf("banks=%d: no overflow on depth-13 recursion", banks)
		}
	}
}

func TestXferToContextInLinkVector(t *testing.T) {
	// F3: any context may sit anywhere a descriptor can; an EXTERNALCALL
	// whose LV entry is a frame context performs a general transfer.
	mod := &image.Module{Name: "lvf", Imports: []image.Import{{Module: "lvf", Proc: "co"}}}
	co := &image.Proc{Name: "co", NumArgs: 1, NumLocals: 2}
	{
		var a image.Asm
		a.Emit(isa.LRC)
		a.Emit(isa.SL1)
		a.Emit(isa.LL0)
		a.Emit(isa.LI1)
		a.Emit(isa.ADD)
		a.Emit(isa.LL1)
		a.Emit(isa.XFERO)
		a.Emit(isa.RET)
		co.Body = a.Fragment()
	}
	main := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 1}
	{
		var a image.Asm
		a.EmitLoadImportDesc(0)
		a.Emit(isa.COCREATE)
		a.Emit(isa.SL0)
		a.Emit(isa.LIB, 41)
		a.Emit(isa.LL0)
		a.Emit(isa.XFERO) // start the coroutine; it sends back 42
		a.Emit(isa.RET)
		main.Body = a.Fragment()
	}
	mod.Procs = []*image.Proc{main, co}
	prog := linkOne(t, mod, "main", linker.Options{})
	m, err := New(prog, ConfigMesa)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.CallNamed("lvf", "main")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 42 {
		t.Fatalf("res = %v", res)
	}
}

func TestStepLimitEnforced(t *testing.T) {
	mod := &image.Module{Name: "spin"}
	p := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 0}
	var a image.Asm
	top := a.NewLabel()
	a.Bind(top)
	a.EmitJump(isa.JB, top)
	p.Body = a.Fragment()
	mod.Procs = []*image.Proc{p}
	prog := linkOne(t, mod, "main", linker.Options{})
	cfg := ConfigMesa
	cfg.MaxSteps = 5000
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.CallNamed("spin", "main")
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestEvalStackDepthMatchesBanks(t *testing.T) {
	// The stack must rename cleanly into a 16-word bank above the three
	// linkage slots.
	if EvalStackDepth+image.FrameHeaderWords > 16 {
		t.Fatalf("EvalStackDepth %d does not fit a 16-word bank", EvalStackDepth)
	}
}

func TestOutputRecordOrder(t *testing.T) {
	mod := &image.Module{Name: "o"}
	p := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 0}
	var a image.Asm
	for i := int32(1); i <= 5; i++ {
		a.Emit(isa.LIB, i*11)
		a.Emit(isa.OUT)
	}
	a.Emit(isa.RET)
	p.Body = a.Fragment()
	mod.Procs = []*image.Proc{p}
	prog := linkOne(t, mod, "main", linker.Options{})
	m, _ := New(prog, ConfigMesa)
	if _, err := m.CallNamed("o", "main"); err != nil {
		t.Fatal(err)
	}
	want := []mem.Word{11, 22, 33, 44, 55}
	for i, w := range want {
		if m.Output[i] != w {
			t.Fatalf("Output = %v", m.Output)
		}
	}
}
