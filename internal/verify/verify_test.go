package verify_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
	"repro/internal/verify"
	"repro/internal/workload"
)

func buildWorkload(t *testing.T, w *workload.Program, early bool) *image.Program {
	t.Helper()
	prog, _, err := w.Build(linker.Options{EarlyBind: early})
	if err != nil {
		t.Fatalf("build %s: %v", w.Name, err)
	}
	return prog
}

func linkOne(t *testing.T, m *image.Module, entry string) *image.Program {
	t.Helper()
	prog, _, err := linker.Link([]*image.Module{m}, m.Name, entry, linker.Options{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return prog
}

func hasReason(diags []verify.Diag, reason verify.Reason) bool {
	for _, d := range diags {
		if d.Reason == reason {
			return true
		}
	}
	return false
}

// Recursive compiler output must be admitted, and every call site must
// read its callee's result-depth summary: fib's calls each return one
// word, so the pc after every call holds exactly [1,1]. Recursion is
// handled by the interprocedural fixpoint, not flagged as unbounded.
func TestFibAdmitted(t *testing.T) {
	for _, early := range []bool{false, true} {
		prog := buildWorkload(t, workload.Fib(10), early)
		r := verify.Program(prog)
		if !r.Admitted() {
			t.Fatalf("early=%v: fib rejected:\n%s", early, r)
		}
		insts, _ := isa.Predecode(prog.Code)
		calls := 0
		for pc, in := range insts {
			if !in.Valid() || !in.Op.IsCall() {
				continue
			}
			if _, _, ok := r.DepthAt(uint32(pc)); !ok {
				continue
			}
			calls++
			next := uint32(pc) + uint32(in.Size)
			if lo, hi, ok := r.DepthAt(next); !ok || lo != 1 || hi != 1 {
				t.Errorf("early=%v: after the %s at %06x: depth [%d,%d] reached=%v, want [1,1]", early, in.Op, pc, lo, hi, ok)
			}
		}
		if calls < 3 {
			t.Errorf("early=%v: %d reached call sites, want fib's two and main's one", early, calls)
		}
	}
}

// Every checked-in workload must be admitted under both linkage policies.
func TestCorpusAdmitted(t *testing.T) {
	for _, w := range workload.Corpus() {
		for _, early := range []bool{false, true} {
			prog := buildWorkload(t, w, early)
			if r := verify.Program(prog); !r.Admitted() {
				t.Errorf("%s early=%v rejected:\n%s", w.Name, early, r)
			}
		}
	}
}

// Generator output is the fuzzing front line: every random program must be
// admitted (the full 0–9999 sweep runs in difffuzz / make verify-corpus).
func TestRandomProgramsAdmitted(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for _, early := range []bool{false, true} {
			prog := buildWorkload(t, workload.RandomProgram(seed), early)
			if r := verify.Program(prog); !r.Admitted() {
				t.Errorf("seed %d early=%v rejected:\n%s", seed, early, r)
			}
		}
	}
}

// jumpPatchProgram links { LI0; JB l; LIW imm; l: HALT } and then moves the
// JB offset back by delta bytes, so the jump lands inside the LIW operand.
func jumpPatchProgram(t *testing.T, imm int32, delta byte) *image.Program {
	t.Helper()
	var a image.Asm
	l := a.NewLabel()
	a.Emit(isa.LI0)
	a.EmitJump(isa.JB, l)
	a.Emit(isa.LIW, imm)
	a.Bind(l)
	a.Emit(isa.HALT)
	m := &image.Module{Name: "m", Procs: []*image.Proc{{Name: "p", Body: a.Fragment()}}}
	prog := linkOne(t, m, "p")
	// Find the JB from the entry and bend its offset.
	insts, _ := isa.Predecode(prog.Code)
	pc := prog.Instances[0].ProcEntryPC(0)
	for insts[pc].Op != isa.JB {
		if !insts[pc].Valid() {
			t.Fatalf("no JB found from entry %06x", pc)
		}
		pc += uint32(insts[pc].Size)
	}
	prog.Code[pc+1] -= delta
	return prog
}

// A jump bent onto a byte where no instruction decodes is a definite
// runtime error: rejected.
func TestBadJumpTargetRejected(t *testing.T) {
	// LIW 0xFFFF encodes as FF FF; 0xFF is not an opcode.
	prog := jumpPatchProgram(t, int32(0xFFFF), 1)
	r := verify.Program(prog)
	if r.Admitted() {
		t.Fatalf("bad jump target admitted:\n%s", r)
	}
	if !hasReason(r.Errors(), verify.ReasonBadJumpTarget) {
		t.Fatalf("missing %s:\n%s", verify.ReasonBadJumpTarget, r)
	}
}

// A jump into another instruction's operand bytes that still decodes is a
// shadow stream: legal for the machine, warned, admitted.
func TestJumpIntoOperandsWarned(t *testing.T) {
	// LIW 0x0101 encodes as 01 01; 0x01 decodes as HALT.
	prog := jumpPatchProgram(t, int32(0x0101), 1)
	r := verify.Program(prog)
	if !r.Admitted() {
		t.Fatalf("shadow-stream jump rejected:\n%s", r)
	}
	if !hasReason(r.Diags, verify.ReasonJumpIntoOperands) {
		t.Fatalf("missing %s:\n%s", verify.ReasonJumpIntoOperands, r)
	}
}

// An entry descriptor whose entry index points past the instance's entry
// vector must be rejected.
func TestDescriptorPastEVRejected(t *testing.T) {
	prog := buildWorkload(t, workload.Fib(5), false)
	inst := prog.Instances[0]
	desc, err := image.DescriptorFor(inst.GFIBase, len(inst.Module.Procs))
	if err != nil {
		t.Fatalf("descriptor: %v", err)
	}
	prog.Entry = desc
	r := verify.Program(prog)
	if r.Admitted() {
		t.Fatalf("descriptor past EV admitted:\n%s", r)
	}
	if !hasReason(r.Errors(), verify.ReasonBadDescriptor) {
		t.Fatalf("missing %s:\n%s", verify.ReasonBadDescriptor, r)
	}
}

// Each linkage word the machine re-reads must agree with the instance
// metadata the regions are built from; a disagreement is rejected with
// linkage-mismatch, never resolved against the metadata.
func TestLinkageMismatchRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(p *image.Program, in *image.Instance)
	}{
		{"entry-vector slot", func(p *image.Program, in *image.Instance) { p.Code[in.CodeBase] ^= 1 }},
		{"frame-class byte", func(p *image.Program, in *image.Instance) { p.Code[in.CodeBase+uint32(in.EVOffsets[0])]++ }},
		{"code base", func(p *image.Program, in *image.Instance) { setData(p, in.GF, mem.Word(in.CodeBase)+2) }},
		{"GFT slot", func(p *image.Program, in *image.Instance) {
			e, _ := image.PackGFTEntry(in.GF+4, 0)
			setData(p, image.GFTBase+mem.Addr(in.GFIBase), e)
		}},
	} {
		prog := buildWorkload(t, workload.Fib(5), false)
		prog.Code = append([]byte(nil), prog.Code...)
		prog.Data = append([]image.DataWord(nil), prog.Data...)
		tc.mutate(prog, prog.Instances[0])
		r := verify.Program(prog)
		if r.Admitted() || !hasReason(r.Errors(), verify.ReasonLinkage) {
			t.Errorf("%s: want a %s rejection:\n%s", tc.name, verify.ReasonLinkage, r)
		}
	}
}

// setData overwrites the initialized data word at addr.
func setData(p *image.Program, addr mem.Addr, v mem.Word) {
	for i := range p.Data {
		if p.Data[i].Addr == addr {
			p.Data[i].Val = v
		}
	}
}

// Invalid slots that are not reachable — here, garbage appended after the
// last procedure — must NOT reject the program, nor draw any diagnostic.
func TestUnreachableInvalidSlotsAccepted(t *testing.T) {
	prog := buildWorkload(t, workload.Fib(5), false)
	prog.Code = append(prog.Code, 0xFF, 0xFF, 0xFF)
	r := verify.Program(prog)
	if !r.Admitted() || len(r.Diags) != 0 {
		t.Fatalf("unreachable garbage drew diagnostics:\n%s", r)
	}
}

// Fourteen pushes in a straight line definitely overflow the 13-word
// stack: rejected with a definite diagnostic, not a maybe.
func TestDefiniteOverflowRejected(t *testing.T) {
	var a image.Asm
	for i := 0; i <= isa.EvalStackDepth; i++ {
		a.Emit(isa.LI1)
	}
	a.Emit(isa.HALT)
	m := &image.Module{Name: "m", Procs: []*image.Proc{{Name: "p", Body: a.Fragment()}}}
	r := verify.Program(linkOne(t, m, "p"))
	if r.Admitted() {
		t.Fatalf("definite overflow admitted:\n%s", r)
	}
	if !hasReason(r.Errors(), verify.ReasonStackOverflow) {
		t.Fatalf("missing %s:\n%s", verify.ReasonStackOverflow, r)
	}
}

// A POP on procedure entry (depth is exactly 0) definitely underflows.
func TestDefiniteUnderflowRejected(t *testing.T) {
	var a image.Asm
	a.Emit(isa.POP)
	a.Emit(isa.HALT)
	m := &image.Module{Name: "m", Procs: []*image.Proc{{Name: "p", Body: a.Fragment()}}}
	r := verify.Program(linkOne(t, m, "p"))
	if r.Admitted() {
		t.Fatalf("definite underflow admitted:\n%s", r)
	}
	if !hasReason(r.Errors(), verify.ReasonStackUnderflow) {
		t.Fatalf("missing %s:\n%s", verify.ReasonStackUnderflow, r)
	}
}

// Depth annotations must exist for reached pcs and stay inside the stack.
func TestDepthsPopulated(t *testing.T) {
	prog := buildWorkload(t, workload.Fib(5), true)
	r := verify.Program(prog)
	entry := prog.Instances[0].ProcEntryPC(0)
	lo, hi, ok := r.DepthAt(entry)
	if !ok {
		t.Fatalf("entry %06x unreached", entry)
	}
	if lo != 0 || hi != 0 {
		t.Errorf("entry depth [%d,%d], want [0,0]", lo, hi)
	}
	reached := 0
	for pc := range prog.Code {
		lo, hi, ok := r.DepthAt(uint32(pc))
		if !ok {
			continue
		}
		reached++
		if lo < 0 || hi > isa.EvalStackDepth || lo > hi {
			t.Errorf("pc %06x: bad interval [%d,%d]", pc, lo, hi)
		}
	}
	if reached == 0 {
		t.Error("no reached pc")
	}
}

// A module-global write inside the module's globals is admitted and draws
// no diagnostic.
func TestHeapWriteIntoBootImage(t *testing.T) {
	w := &workload.Program{
		Name: "boot-write",
		Sources: map[string]string{"bw": `
module bw;
var total = 0;
proc main(n) {
  total = total + n;
  return total;
}
`},
		Module: "bw", Proc: "main",
	}
	for _, early := range []bool{false, true} {
		r := verify.Program(buildWorkload(t, w, early))
		if !r.Admitted() || len(r.Diags) != 0 {
			t.Fatalf("early=%v: global write drew diagnostics:\n%s", early, r)
		}
	}
}

// chainProgram builds procs procedures chained by calls, each of them but
// the last allocating a record, storing into it, loading it back and
// freeing it. A module exposes at most 128 entry points, so the chain is
// spread over modules of 100 procedures each; main sits in the first.
func chainProgram(procs int) *workload.Program {
	const perModule = 100
	nmod := (procs + perModule - 1) / perModule
	srcs := map[string]string{}
	for m := 0; m < nmod; m++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "module m%d;\n", m)
		if m+1 < nmod {
			fmt.Fprintf(&sb, "import m%d;\n", m+1)
		}
		for i := m * perModule; i < min((m+1)*perModule, procs); i++ {
			if i == procs-1 {
				fmt.Fprintf(&sb, "proc p%d(x) { return x; }\n", i)
				continue
			}
			next := fmt.Sprintf("p%d", i+1)
			if (i+1)/perModule != m {
				next = fmt.Sprintf("m%d.p%d", m+1, i+1)
			}
			fmt.Fprintf(&sb, `proc p%d(x) {
  var a = alloc(4);
  store(a, x);
  var v = load(a);
  dealloc(a);
  return v + %s(x);
}
`, i, next)
		}
		if m == 0 {
			sb.WriteString("proc main(n) { return p0(n); }\n")
		}
		srcs[fmt.Sprintf("m%d", m)] = sb.String()
	}
	return &workload.Program{
		Name:    fmt.Sprintf("chain-%d", procs),
		Sources: srcs,
		Module:  "m0", Proc: "main", Args: []mem.Word{3},
	}
}

// Programs past any fixed region count are analyzed whole: the chain is
// admitted at 70, 257 and 400 procedures, with no diagnostic.
func TestManyProcsAdmitted(t *testing.T) {
	for _, procs := range []int{70, 257, 400} {
		w := chainProgram(procs)
		for _, early := range []bool{false, true} {
			r := verify.Program(buildWorkload(t, w, early))
			if !r.Admitted() || len(r.Diags) != 0 {
				t.Errorf("%s early=%v: diagnostics:\n%s", w.Name, early, r)
			}
		}
	}
}
