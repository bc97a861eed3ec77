package core

import (
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
)

// TestHandlerTableTotal: every defined opcode has a dispatch-table entry.
// Predecode keeps undefined opcodes out of the table, so a nil entry here
// is the only way a handler could be missing.
func TestHandlerTableTotal(t *testing.T) {
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if handlers[op] == nil {
			t.Errorf("no handler for %v", op)
		}
	}
}

// covRun step-drives one named procedure to completion, recording every
// executed opcode into got. Each Step must retire exactly one instruction:
// a handler that advanced the counter itself would charge its opcode twice
// against the step budget.
func covRun(t *testing.T, got map[isa.Op]bool, prog *image.Program, cfg Config, module, proc string, args ...mem.Word) {
	t.Helper()
	cfg.HeapCheck = true
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := prog.FindProc(module, proc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(desc, args...); err != nil {
		t.Fatal(err)
	}
	for steps := 0; !m.Halted(); steps++ {
		if steps > 1_000_000 {
			t.Fatalf("%s.%s: coverage run did not halt", module, proc)
		}
		if pc := m.pc; pc < uint32(len(m.code)) && m.insts[pc].Valid() {
			got[m.insts[pc].Op] = true
		}
		before := m.metrics.Instructions
		if err := m.Step(); err != nil {
			t.Fatalf("%s.%s: %v", module, proc, err)
		}
		if n := m.metrics.Instructions - before; n != 1 {
			t.Fatalf("%s.%s: a Step retired %d instructions, want 1", module, proc, n)
		}
	}
}

// omniLibModule exports nine trivial procedures so the importer's link
// vector spans every external-call slot (EFC0..EFC7 plus EFCB).
func omniLibModule() *image.Module {
	mod := &image.Module{Name: "lib"}
	for i := 0; i < 9; i++ {
		p := &image.Proc{Name: "f" + string(rune('0'+i)), NumArgs: 0, NumLocals: 0}
		var a image.Asm
		a.Emit(isa.LI2)
		a.Emit(isa.RET)
		p.Body = a.Fragment()
		mod.Procs = append(mod.Procs, p)
	}
	return mod
}

// omniModule deliberately executes every opcode family the other test
// workloads miss: the full fast-form load/store/literal ranges, every
// arithmetic and jump form, pointer access, frame-heap access, every
// local- and external-call slot shape, retained frames and the trap pair.
func omniModule() *image.Module {
	mod := &image.Module{
		Name:       "omni",
		NumGlobals: 4,
		GlobalInit: []uint16{1, 2, 3, 4},
	}
	for _, im := range []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8"} {
		mod.Imports = append(mod.Imports, image.Import{Module: "lib", Proc: im})
	}

	leaf := func(name string) *image.Proc {
		p := &image.Proc{Name: name, NumArgs: 0, NumLocals: 0}
		var a image.Asm
		a.Emit(isa.LI1)
		a.Emit(isa.RET)
		p.Body = a.Fragment()
		return p
	}

	keeper := &image.Proc{Name: "keeper", NumArgs: 0, NumLocals: 0}
	{
		var a image.Asm
		a.Emit(isa.RETAIN)
		a.Emit(isa.LLF)
		a.Emit(isa.RET)
		keeper.Body = a.Fragment()
	}
	handler := &image.Proc{Name: "handler", NumArgs: 1, NumLocals: 0}
	{
		var a image.Asm
		a.Emit(isa.LL0)
		a.Emit(isa.LI2)
		a.Emit(isa.MUL)
		a.Emit(isa.RET)
		handler.Body = a.Fragment()
	}
	stop := &image.Proc{Name: "stop", NumArgs: 0, NumLocals: 0}
	{
		var a image.Asm
		a.Emit(isa.LIB, 7)
		a.Emit(isa.HALT)
		stop.Body = a.Fragment()
	}

	main := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 9}
	{
		var a image.Asm
		// Every one-byte literal into every one-byte local slot.
		for i := int32(0); i < 8; i++ {
			a.Emit(isa.LI0 + isa.Op(i))
			a.Emit(isa.SL0 + isa.Op(i))
		}
		a.Emit(isa.LIB, 42)
		a.Emit(isa.SLB, 8)
		a.Emit(isa.LIN1)
		a.Emit(isa.POP)
		a.Emit(isa.LIW, 12345)
		a.Emit(isa.POP)
		for i := int32(0); i < 8; i++ {
			a.Emit(isa.LL0 + isa.Op(i))
			a.Emit(isa.POP)
		}
		a.Emit(isa.LLB, 8)
		a.Emit(isa.POP)
		// Globals.
		for i := int32(0); i < 4; i++ {
			a.Emit(isa.LG0 + isa.Op(i))
			a.Emit(isa.POP)
		}
		a.Emit(isa.LG0)
		a.Emit(isa.SGB, 0)
		a.Emit(isa.LGB, 2)
		a.Emit(isa.POP)
		// Arithmetic and logic.
		a.Emit(isa.LIB, 40)
		a.Emit(isa.LI4)
		a.Emit(isa.DIV)
		a.Emit(isa.LI3)
		a.Emit(isa.MOD)
		a.Emit(isa.NEG)
		a.Emit(isa.POP)
		a.Emit(isa.LI5)
		a.Emit(isa.LI3)
		a.Emit(isa.ADD)
		a.Emit(isa.LI2)
		a.Emit(isa.SUB)
		a.Emit(isa.LI3)
		a.Emit(isa.MUL)
		a.Emit(isa.POP)
		a.Emit(isa.LIB, 12)
		a.Emit(isa.LI6)
		a.Emit(isa.AND)
		a.Emit(isa.LI1)
		a.Emit(isa.OR)
		a.Emit(isa.LI3)
		a.Emit(isa.XOR)
		a.Emit(isa.NOT)
		a.Emit(isa.POP)
		a.Emit(isa.LI1)
		a.Emit(isa.LI2)
		a.Emit(isa.SHL)
		a.Emit(isa.LI1)
		a.Emit(isa.SHR)
		a.Emit(isa.POP)
		// Stack shuffles.
		a.Emit(isa.LI1)
		a.Emit(isa.DUP)
		a.Emit(isa.POP)
		a.Emit(isa.POP)
		a.Emit(isa.LI1)
		a.Emit(isa.LI2)
		a.Emit(isa.EXCH)
		a.Emit(isa.POP)
		a.Emit(isa.POP)
		// Pointers to locals.
		a.Emit(isa.LIB, 7)
		a.Emit(isa.SL0)
		a.Emit(isa.LIB, 9)
		a.Emit(isa.LAB, 0)
		a.Emit(isa.STIND)
		a.Emit(isa.LAB, 0)
		a.Emit(isa.LDIND)
		a.Emit(isa.POP)
		a.Emit(isa.LAB, 0)
		a.Emit(isa.RFB, 0)
		a.Emit(isa.POP)
		a.Emit(isa.LIB, 5)
		a.Emit(isa.LAB, 0)
		a.Emit(isa.WFB, 0)
		// Every jump form, each to the very next instruction.
		jump := func(setup func(), op isa.Op) {
			if setup != nil {
				setup()
			}
			l := a.NewLabel()
			a.EmitJump(op, l)
			a.Bind(l)
		}
		jump(nil, isa.JB)
		jump(nil, isa.JW)
		jump(func() { a.Emit(isa.LI0) }, isa.JZB)
		jump(func() { a.Emit(isa.LI1) }, isa.JNZB)
		jump(func() { a.Emit(isa.LI1); a.Emit(isa.LI1) }, isa.JEB)
		jump(func() { a.Emit(isa.LI1); a.Emit(isa.LI2) }, isa.JNEB)
		jump(func() { a.Emit(isa.LI1); a.Emit(isa.LI2) }, isa.JLB)
		jump(func() { a.Emit(isa.LI1); a.Emit(isa.LI1) }, isa.JLEB)
		jump(func() { a.Emit(isa.LI2); a.Emit(isa.LI1) }, isa.JGB)
		jump(func() { a.Emit(isa.LI1); a.Emit(isa.LI1) }, isa.JGEB)
		a.Emit(isa.NOOP)
		// Frame-heap access.
		a.EmitAllocWords(4)
		a.Emit(isa.FFREE)
		// Local calls: slots 0..3 are the one-byte forms, slot 5 the
		// byte-operand form (main itself sits at slot 4).
		for _, slot := range []int{0, 1, 2, 3, 5} {
			a.EmitCallLocal(slot)
			a.Emit(isa.POP)
		}
		// A retained frame, freed by the caller.
		a.EmitCallLocal(6)
		a.Emit(isa.FREE)
		// External calls: link-vector slots 0..7 plus the byte form.
		for i := 0; i < 9; i++ {
			a.EmitCallImport(i)
			a.Emit(isa.POP)
		}
		// Machine-level trap: install the handler, raise, drop the result.
		a.EmitLoadLocalDesc(7)
		a.Emit(isa.STRAP)
		a.Emit(isa.TRAPB, 33)
		a.Emit(isa.POP)
		a.Emit(isa.LIB, 3)
		a.Emit(isa.OUT)
		a.Emit(isa.LI1)
		a.Emit(isa.RET)
		main.Body = a.Fragment()
	}

	mod.Procs = []*image.Proc{
		leaf("p0"), leaf("p1"), leaf("p2"), leaf("p3"), // slots 0..3
		main,       // slot 4
		leaf("p5"), // slot 5
		keeper,     // slot 6
		handler,    // slot 7
		stop,       // slot 8
	}
	return mod
}

// TestOpcodeCoverage: every opcode in the isa metadata table is executed
// at least once by the step-driven workloads below, under both linkage
// policies (the early-bound builds are what exercise DCALL/SDCALL) and on
// each machine configuration, so every handler's per-configuration paths
// are stepped.
func TestOpcodeCoverage(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"mesa", ConfigMesa}, {"fastfetch", ConfigFastFetch}, {"fastcalls", ConfigFastCalls}} {
		t.Run(c.name, func(t *testing.T) {
			got := map[isa.Op]bool{}
			for _, early := range []bool{false, true} {
				opts := linker.Options{EarlyBind: early}
				covRun(t, got, linkOne(t, fibModule(), "main", opts), c.cfg, "fib", "main", 8)
				covRun(t, got, linkOne(t, coroutineModule(), "main", opts), c.cfg, "co", "main")
				prog, _, err := linker.Link([]*image.Module{omniModule(), omniLibModule()}, "omni", "main", opts)
				if err != nil {
					t.Fatalf("early=%v: %v", early, err)
				}
				covRun(t, got, prog, c.cfg, "omni", "main")
				covRun(t, got, prog, c.cfg, "omni", "stop")
			}
			// Every nearby early-bound call narrows to SDCALL; disabling the
			// narrowing pass is what exercises the four-byte DCALL form.
			prog, _, err := linker.Link([]*image.Module{omniModule(), omniLibModule()}, "omni", "main",
				linker.Options{EarlyBind: true, NoShortCalls: true})
			if err != nil {
				t.Fatal(err)
			}
			covRun(t, got, prog, c.cfg, "omni", "main")
			var missing []string
			for op := isa.Op(0); op < isa.NumOps; op++ {
				if !got[op] {
					missing = append(missing, op.String())
				}
			}
			if len(missing) > 0 {
				t.Fatalf("%d opcodes never executed: %v", len(missing), missing)
			}
		})
	}
}
