package verify_test

import (
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/verify"
	"repro/internal/workload"
)

// asmShapes are hand-assembled shapes whose stack effects a compiler
// would not emit: unbalanced resume depths, deep carries, re-entrant
// handlers and net-push recursion all MIGHT fault, so the checked machine
// catches them at run time and the verifier admits them.
var asmShapes = []struct {
	name string
	asm  func() *image.Module
}{
	{name: "xfer-descriptor-chain", asm: func() *image.Module {
		// A statically known XFERO to a procedure descriptor.
		var a, b image.Asm
		a.EmitLoadLocalDesc(1)
		a.Emit(isa.XFERO)
		a.Emit(isa.POP)
		a.Emit(isa.HALT)
		b.Emit(isa.LI3)
		b.Emit(isa.RET)
		return &image.Module{Name: "x", Procs: []*image.Proc{
			{Name: "main", Body: a.Fragment()},
			{Name: "t", NumResults: 1, Body: b.Fragment()},
		}}
	}},
	{name: "resume-depth-mismatch", asm: func() *image.Module {
		// The producer is started empty but later resumed with two carried
		// words, so its post-transfer POP may underflow.
		var a, b image.Asm
		a.EmitLoadLocalDesc(1)
		a.Emit(isa.COCREATE)
		a.Emit(isa.SL0)
		a.Emit(isa.LL0)
		a.Emit(isa.XFERO)
		a.Emit(isa.LL0)
		a.Emit(isa.XFERO)
		a.Emit(isa.HALT)
		b.Emit(isa.LRC)
		b.Emit(isa.SL0)
		b.Emit(isa.LI5)
		b.Emit(isa.LI5)
		b.Emit(isa.LL0)
		b.Emit(isa.XFERO)
		b.Emit(isa.POP)
		b.Emit(isa.HALT)
		return &image.Module{Name: "mm", Procs: []*image.Proc{
			{Name: "main", NumLocals: 1, Body: a.Fragment()},
			{Name: "prod", NumLocals: 4, Body: b.Fragment()},
		}}
	}},
	{name: "xfer-deep-carry", asm: func() *image.Module {
		// Twelve carried words into a frame that then pushes two more.
		var a, b image.Asm
		a.EmitLoadLocalDesc(1)
		a.Emit(isa.COCREATE)
		a.Emit(isa.SL0)
		a.Emit(isa.LL0)
		a.Emit(isa.XFERO)
		for i := 0; i < 12; i++ {
			a.Emit(isa.LI1)
		}
		a.Emit(isa.LL0)
		a.Emit(isa.XFERO)
		a.Emit(isa.HALT)
		b.Emit(isa.LRC)
		b.Emit(isa.SL0)
		b.Emit(isa.LL0)
		b.Emit(isa.XFERO)
		b.Emit(isa.LI1)
		b.Emit(isa.LI1)
		b.Emit(isa.HALT)
		return &image.Module{Name: "md", Procs: []*image.Proc{
			{Name: "main", NumLocals: 1, Body: a.Fragment()},
			{Name: "prod", NumLocals: 12, Body: b.Fragment()},
		}}
	}},
	{name: "trap-restore-overflow", asm: func() *image.Module {
		// A re-entrant handler returning eleven words over a trapper two
		// deep.
		var a, b image.Asm
		a.EmitLoadLocalDesc(1)
		a.Emit(isa.STRAP)
		a.Emit(isa.LI1)
		a.Emit(isa.LI1)
		a.Emit(isa.TRAPB, 5)
		a.Emit(isa.HALT)
		b.Emit(isa.TRAPB, 9)
		for i := 0; i < 10; i++ {
			b.Emit(isa.LI1)
		}
		b.Emit(isa.RET)
		return &image.Module{Name: "rt", Procs: []*image.Proc{
			{Name: "main", Body: a.Fragment()},
			{Name: "handler", NumArgs: 1, NumLocals: 1, NumResults: 11, Body: b.Fragment()},
		}}
	}},
	{name: "net-push-recursion", asm: func() *image.Module {
		// Every level returns one more word than the last: the summary
		// widens to the stack limit.
		var a, b image.Asm
		a.Emit(isa.LI3)
		a.EmitCallLocal(1)
		a.Emit(isa.HALT)
		base := b.NewLabel()
		b.Emit(isa.LL0)
		b.EmitJump(isa.JZB, base)
		b.Emit(isa.LL0)
		b.Emit(isa.LI1)
		b.Emit(isa.SUB)
		b.EmitCallLocal(1)
		b.Emit(isa.LI1)
		b.Emit(isa.RET)
		b.Bind(base)
		b.Emit(isa.LI1)
		b.Emit(isa.RET)
		return &image.Module{Name: "np", Procs: []*image.Proc{
			{Name: "main", Body: a.Fragment()},
			{Name: "r", NumArgs: 1, NumLocals: 1, Body: b.Fragment()},
		}}
	}},
	{name: "unarmed-trapb", asm: func() *image.Module {
		// An unarmed TRAPB next to a resolved local call.
		var a, b image.Asm
		a.Emit(isa.LI1)
		a.Emit(isa.TRAPB, 3)
		a.Emit(isa.POP)
		a.Emit(isa.POP)
		a.EmitCallLocal(1)
		a.Emit(isa.POP)
		a.Emit(isa.HALT)
		b.Emit(isa.LI1)
		b.Emit(isa.RET)
		return &image.Module{Name: "uf", Procs: []*image.Proc{
			{Name: "main", Body: a.Fragment()},
			{Name: "q", NumResults: 1, Body: b.Fragment()},
		}}
	}},
	{name: "net-push-loop", asm: func() *image.Module {
		// It overflows at run time, but only after some iterations.
		var a image.Asm
		l := a.NewLabel()
		a.Bind(l)
		a.Emit(isa.LI0)
		a.EmitJump(isa.JB, l)
		return &image.Module{Name: "m", Procs: []*image.Proc{{Name: "p", Body: a.Fragment()}}}
	}},
}

// srcShapes are compiler-output shapes, built under both linkages:
// coroutines, trap handlers and retained frames, with and without the
// retain.
var srcShapes = []struct{ name, mod, src string }{
	{name: "coroutine", mod: "com", src: `
module com;
proc prod(start) {
  var who = retctx();
  var v = start;
  while (1) {
    transfer(who, v & 0x3FFF);
    v = v + 3;
  }
}
proc main() {
  var co = cocreate(prod);
  var a = transfer(co, 1);
  var b = transfer(co, 0);
  free(co);
  return (a + b) & 0x7FFF;
}
`},
	{name: "trap-handler", mod: "trapm", src: `
module trapm;
proc th(code) {
  return (code * 3 + 1) & 0xFFF;
}
proc main(n) {
  settrap(th);
  var acc = trap(7);
  acc = (acc + (100 / (n & 3))) & 0x7FFF;
  return acc;
}
`},
	{name: "retained-keeper", mod: "keep", src: `
module keep;
proc keeper(x) {
  var t = (x * 2 + 1) & 0xFFF;
  retain();
  return myctx(), t;
}
proc main() {
  var kc, kv;
  kc, kv = keeper(21);
  free(kc);
  return kv;
}
`},
	{name: "unretained-keeper", mod: "keep", src: `
module keep;
proc keeper(x) {
  var t = (x * 2 + 1) & 0xFFF;
  return myctx(), t;
}
proc main() {
  var kc, kv;
  kc, kv = keeper(21);
  free(kc);
  return kv;
}
`},
}

// TestShapesAdmitted: the per-procedure summaries, unknown transfers and
// trap arming admit every shape, since none definitely faults.
func TestShapesAdmitted(t *testing.T) {
	for _, sh := range asmShapes {
		t.Run(sh.name, func(t *testing.T) {
			m := sh.asm()
			if r := verify.Program(linkOne(t, m, m.Procs[0].Name)); !r.Admitted() {
				t.Fatalf("rejected:\n%s", r)
			}
		})
	}
	for _, sh := range srcShapes {
		t.Run(sh.name, func(t *testing.T) {
			w := &workload.Program{Name: sh.name, Sources: map[string]string{sh.mod: sh.src}, Module: sh.mod, Proc: "main"}
			for _, early := range []bool{false, true} {
				if r := verify.Program(buildWorkload(t, w, early)); !r.Admitted() {
					t.Fatalf("early=%v: rejected:\n%s", early, r)
				}
			}
		})
	}
}
