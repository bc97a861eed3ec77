package verify

import (
	"repro/internal/isa"
)

// Stage 2 of the verifier: certificate derivation over the stage-1
// fixpoint. The worklist guarantees every pc's last step saw its final
// state, so most value rules were already enforced in flow; what remains
// here are the judgments that depend on facts falsified AFTER a site's
// last step (the retain discipline of a summarized callee, the definite
// stack faults that later joins could still widen away) and the
// diagnostics deliberately deferred until the trap-arming question
// settled (the unarmed-TRAPB stack effect).
func (a *analyzer) certify() {
	for pc := 0; pc < len(a.code); pc++ {
		if !a.reached[pc] || !a.insts[pc].Valid() {
			continue
		}
		s := a.state[pc]
		if pp, ok := a.defFlow[uint32(pc)]; ok {
			// A fixed stack effect looked definitely out of bounds at some
			// point of the fixpoint. Re-judge against the final interval:
			// still definite means the instruction can never execute
			// cleanly; otherwise the site's last step already recorded the
			// maybe- diagnostics.
			pops, pushes := pp[0], pp[1]
			if s.d.hi < pops {
				a.diag(uint32(pc), LevelError, ReasonStackUnderflow,
					"%s pops %d with at most %d on the stack", a.insts[pc].Op, pops, s.d.hi)
			} else if lo := max(s.d.lo-pops, 0); lo+pushes > maxDepth {
				a.diag(uint32(pc), LevelError, ReasonStackOverflow,
					"%s pushes to depth %d past the %d-word stack", a.insts[pc].Op, lo+pushes, maxDepth)
			}
		}
		if a.insts[pc].Op != isa.TRAPB || a.armed || a.lost&lostTraps != 0 {
			continue
		}
		// No reachable STRAP ever arms a handler: the deferred Go-path
		// stack effect is the only behaviour.
		if s.d.lo+1 > maxDepth {
			a.diag(uint32(pc), LevelError, ReasonStackOverflow,
				"%s pushes to depth %d past the %d-word stack", a.insts[pc].Op, s.d.lo+1, maxDepth)
		} else if s.d.hi+1 > maxDepth {
			a.diagCert(uint32(pc), ReasonMaybeOverflow,
				"%s can push to depth %d past the %d-word stack", a.insts[pc].Op, s.d.hi+1, maxDepth)
		}
	}
}

// certFrees re-validates every own-frame FREE the fixpoint tracked against
// the final summaries: the freed procedure must have retained its frame on
// every return path, and a frame cannot free itself. A failure means the
// heap may already be corrupt there, so the freed-set family is lost; the
// result reports whether that requeued readers for one more drain.
func (a *analyzer) certFrees() bool {
	if a.lost&lostFreed != 0 {
		return false
	}
	for _, pc := range a.freeSites {
		s := a.state[pc]
		if a.insts[pc].Op != isa.FREE || a.seen[diagKey{pc, ReasonUnsafeFree}] ||
			!s.d.exact() || s.vals == nil || s.d.lo < 1 {
			continue
		}
		v := s.vals[len(s.vals)-1]
		if v.kind != vCtx || v.src&srcOwn == 0 {
			continue
		}
		cur := int(a.regionOf[pc])
		v.regs.forEach(func(T int) {
			if T == cur || !a.retainedAll[T] || !a.retSeen[T] {
				a.lose(lostFreed)
			}
		})
	}
	return a.lost&lostFreed != 0
}
