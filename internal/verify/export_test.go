package verify

import (
	"repro/internal/image"
	"repro/internal/isa"
)

// StepBound runs the analysis over p and returns the worklist steps it
// took and the bound DESIGN.md's "Worst-case bound" states for p:
// 27·(R + D) + T, where R counts reached pcs, D the call sites waiting on
// a callee's summary and T the reached TRAPB, DIV and MOD sites.
func StepBound(p *image.Program) (steps, bound int) {
	insts, _ := isa.Predecode(p.Code)
	a := newAnalyzer(p, insts)
	a.run()
	r, d, t := 0, 0, 0
	for pc, ok := range a.reached {
		if !ok {
			continue
		}
		r++
		if trapSite(&a.insts[pc]) {
			t++
		}
	}
	for _, sites := range a.deps {
		d += len(sites)
	}
	return a.steps, 27*(r+d) + t
}
