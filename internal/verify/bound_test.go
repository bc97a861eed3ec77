package verify_test

import (
	"fmt"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/verify"
)

// jumpChain is one procedure of n conditional jumps laid out in reverse:
// each block's taken edge goes back to the next block, its fall-through to
// the previous one, and the last block jumps to a head that pushes one
// word per round, so every pc widens through all depths.
func jumpChain(n int) *image.Module {
	var a image.Asm
	head := a.NewLabel()
	blocks := make([]int, n)
	for i := range blocks {
		blocks[i] = a.NewLabel()
	}
	a.Bind(head)
	a.Emit(isa.LI1)
	a.EmitJump(isa.JB, blocks[0])
	for i := n - 1; i >= 0; i-- {
		a.Bind(blocks[i])
		a.Emit(isa.LI0)
		if i == n-1 {
			a.EmitJump(isa.JZB, head)
		} else {
			a.EmitJump(isa.JZB, blocks[i+1])
		}
	}
	a.Emit(isa.HALT)
	return &image.Module{Name: "jc", Procs: []*image.Proc{{Name: "main", Body: a.Fragment()}}}
}

// xferCycle is n procedures, each looping on a push and an XFERO to the
// next one's descriptor, the last to the first.
func xferCycle(n int) *image.Module {
	m := &image.Module{Name: "xc"}
	for i := 0; i < n; i++ {
		var a image.Asm
		loop := a.NewLabel()
		a.Bind(loop)
		a.Emit(isa.LI1)
		a.EmitLoadLocalDesc((i + 1) % n)
		a.Emit(isa.XFERO)
		a.Emit(isa.LI0)
		a.EmitJump(isa.JZB, loop)
		a.Emit(isa.RET)
		m.Procs = append(m.Procs, &image.Proc{Name: fmt.Sprintf("p%d", i), Body: a.Fragment()})
	}
	return m
}

// callCycle is main calling the first of n mutually recursive procedures,
// each returning one word more than the next one in the cycle, so every
// result summary grows to the stack limit and requeues its call sites on
// each growth.
func callCycle(n int) *image.Module {
	var main image.Asm
	main.Emit(isa.LI3)
	main.EmitCallLocal(1)
	main.Emit(isa.HALT)
	m := &image.Module{Name: "cc", Procs: []*image.Proc{{Name: "main", Body: main.Fragment()}}}
	for i := 1; i <= n; i++ {
		var b image.Asm
		base := b.NewLabel()
		b.Emit(isa.LL0)
		b.EmitJump(isa.JZB, base)
		b.Emit(isa.LL0)
		b.Emit(isa.LI1)
		b.Emit(isa.SUB)
		b.EmitCallLocal(i%n + 1)
		b.Emit(isa.LI1)
		b.Emit(isa.RET)
		b.Bind(base)
		b.Emit(isa.LI1)
		b.Emit(isa.RET)
		m.Procs = append(m.Procs, &image.Proc{Name: fmt.Sprintf("r%d", i), NumArgs: 1, NumLocals: 1, Body: b.Fragment()})
	}
	return m
}

// TestStepBound pins the worst case of the depth-interval lattice: over
// long jump chains, deep XFERO cycles and deep call chains at three sizes
// each, the worklist takes no more steps than DESIGN.md's "Worst-case
// bound", which is linear in the reached pcs.
func TestStepBound(t *testing.T) {
	for _, fam := range []struct {
		name  string
		gen   func(int) *image.Module
		sizes []int
	}{
		{"jump-chain", jumpChain, []int{10, 100, 1000}},
		{"xfer-cycle", xferCycle, []int{4, 32, 127}},
		{"call-cycle", callCycle, []int{4, 32, 127}},
	} {
		for _, n := range fam.sizes {
			m := fam.gen(n)
			steps, bound := verify.StepBound(linkOne(t, m, m.Procs[0].Name))
			t.Logf("%s(%d): %d steps, bound %d", fam.name, n, steps, bound)
			if steps == 0 || steps > bound {
				t.Errorf("%s(%d): %d steps, want 1..%d", fam.name, n, steps, bound)
			}
		}
	}
}
