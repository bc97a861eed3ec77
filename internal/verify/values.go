package verify

import (
	"repro/internal/image"
	"repro/internal/mem"
)

// The value lattice of the summary engine. The interval analysis alone
// cannot certify coroutine, trap or heap programs: XFERO's depth effect
// depends on WHERE the popped context word can point, FREE's safety on
// where the freed frame came from, and STIND's on where the address can
// land. So the engine tracks a small abstract value for every
// evaluation-stack slot and definitely-assigned local: a 16-bit constant
// (procedure descriptors are link-time LIW immediates), a bounded unsigned
// range (loop counters under a compare-branch guard), a context word with
// a provenance and a may-set of frame regions, or a record pointer — the
// result of an AFB — with a may-set of allocation sites and a bounded word
// offset. Region and site sets hold the first 256 of each (regset.go);
// anything past them is simply top.
//
// Value tracking is certificate-only: it may sharpen the depth flow
// (resume pools, handler result summaries) but it never manufactures an
// Error-level rejection on its own. Where something reachable can corrupt
// the discipline a family of facts rests on (a raw store the record model
// cannot bound, an untracked FREE, a transfer to an unknown context), that
// site withholds the certificate and the family reads as top from then on
// (analyzer.lose); the values on the stack and every other family keep
// their precision.

// value kinds.
const (
	vTop  uint8 = iota // anything
	vWord              // exactly the 16-bit constant .word
	vCtx               // a context word: a frame of one of the .regs regions
	vRng               // an unsigned word in [.lo, .hi] (singletons stay vWord)
	vRec               // a pointer .off words into a record of one of the .regs allocation sites
)

// provenance bits of a vCtx value (OR-monotone: a join accumulates bits,
// and every bit makes the value LESS usable).
const (
	srcCreated   uint8 = 1 << iota // a COCREATE result: an embryo (or since-started) frame
	srcEntered                     // retctx in a transfer-only region: a frame suspended at an XFERO
	srcOwn                         // myctx: the running procedure's own frame
	srcUntracked                   // retctx of a call- or trap-entered region, or with pools or handlers lost
	srcZero                        // may also be NIL (transfer halts; free faults cleanly)
)

// value is one abstract stack or local slot. All fields are comparable, so
// values (and stacks of them) compare with ==.
type value struct {
	kind uint8
	src  uint8 // vCtx provenance bits
	// slot is 1+the local slot this stack value was loaded from (0 = no
	// mark). A compare-branch consuming a marked value refines the local's
	// range on each outgoing edge; SL to the slot scrubs stale marks.
	slot   uint8
	word   mem.Word // vWord payload
	lo, hi mem.Word // vRng value bounds / vRec offset bounds
	regs   regSet   // vCtx region set / vRec allocation-site set
}

var topVal = value{kind: vTop}

func wordVal(w mem.Word) value            { return value{kind: vWord, word: w} }
func ctxVal(src uint8, regs regSet) value { return value{kind: vCtx, src: src, regs: regs} }

// rangeVal normalizes a bounded unsigned range; singletons are vWord.
func rangeVal(lo, hi mem.Word) value {
	if lo == hi {
		return wordVal(lo)
	}
	return value{kind: vRng, lo: lo, hi: hi}
}

// rangeOf reads a value as an unsigned range.
func (v value) rangeOf() (lo, hi mem.Word, ok bool) {
	switch v.kind {
	case vWord:
		return v.word, v.word, true
	case vRng:
		return v.lo, v.hi, true
	}
	return 0, 0, false
}

// clearSlot drops the local-load mark (stored copies carry none).
func (v value) clearSlot() value {
	v.slot = 0
	return v
}

// widenHi returns the smallest 2^k-1 >= h: the geometric widening step
// that keeps unguarded counter joins converging in at most 16 rounds.
func widenHi(h mem.Word) mem.Word {
	v := uint32(h)
	v |= v >> 1
	v |= v >> 2
	v |= v >> 4
	v |= v >> 8
	return mem.Word(v)
}

// widenJoin joins [alo,ahi] (the prior state) with [blo,bhi], widening any
// growth beyond the prior range geometrically. Guard refinement at the
// loop's compare-branch re-clamps the widened range, so a bounded counter
// keeps its bound while an unbounded one converges quickly.
func widenJoin(alo, ahi, blo, bhi mem.Word) (mem.Word, mem.Word) {
	lo, hi := alo, ahi
	if blo < lo {
		lo = blo
	}
	if bhi > hi {
		hi = bhi
	}
	if lo == alo && hi == ahi {
		return lo, hi
	}
	if hi > ahi {
		hi = widenHi(hi)
	}
	if lo < alo {
		lo = 0
	}
	return lo, hi
}

// join is the lattice join. The receiver is the prior state at a merge
// point (range growth beyond it widens); the result always contains both
// arguments, so the fixpoint only grows.
func (a value) join(b value) value {
	if a == b {
		return a
	}
	slot := uint8(0)
	if a.slot == b.slot {
		slot = a.slot
	}
	a.slot, b.slot = 0, 0
	j := joinKinds(a, b)
	j.slot = slot
	return j
}

func joinKinds(a, b value) value {
	if a == b {
		return a
	}
	alo, ahi, aok := a.rangeOf()
	blo, bhi, bok := b.rangeOf()
	if aok && bok {
		lo, hi := widenJoin(alo, ahi, blo, bhi)
		return rangeVal(lo, hi)
	}
	if a.kind != b.kind {
		return topVal
	}
	switch a.kind {
	case vCtx:
		return value{kind: vCtx, src: a.src | b.src, regs: a.regs.union(b.regs)}
	case vRec:
		lo, hi := widenJoin(a.lo, a.hi, b.lo, b.hi)
		return value{kind: vRec, regs: a.regs.union(b.regs), lo: lo, hi: hi}
	}
	return topVal
}

// addVals is the abstract ADD: exact on constants, interval arithmetic on
// ranges (only when the 16-bit sum cannot wrap), and offset arithmetic on
// record pointers. ok is false when the result is untracked.
func addVals(x, y value) (value, bool) {
	if x.kind == vWord && y.kind == vWord {
		return wordVal(x.word + y.word), true // exact, wrap included
	}
	if y.kind == vRec {
		x, y = y, x
	}
	if x.kind == vRec {
		ylo, yhi, ok := y.rangeOf()
		if !ok || int(x.hi)+int(yhi) > 0xFFFF {
			return value{}, false
		}
		return value{kind: vRec, regs: x.regs, lo: x.lo + ylo, hi: x.hi + yhi}, true
	}
	xlo, xhi, xok := x.rangeOf()
	ylo, yhi, yok := y.rangeOf()
	if !xok || !yok || int(xhi)+int(yhi) > 0xFFFF {
		return value{}, false
	}
	return rangeVal(xlo+ylo, xhi+yhi), true
}

// subVals is the abstract SUB (x - y), tracked only when no borrow can
// occur (or both are constants, where wrap is exact).
func subVals(x, y value) (value, bool) {
	if x.kind == vWord && y.kind == vWord {
		return wordVal(x.word - y.word), true
	}
	ylo, yhi, yok := y.rangeOf()
	if !yok {
		return value{}, false
	}
	if x.kind == vRec {
		if x.lo < yhi {
			return value{}, false
		}
		return value{kind: vRec, regs: x.regs, lo: x.lo - yhi, hi: x.hi - ylo}, true
	}
	xlo, xhi, xok := x.rangeOf()
	if !xok || xlo < yhi {
		return value{}, false
	}
	return rangeVal(xlo-yhi, xhi-ylo), true
}

// transferable reports whether an XFERO to this context word is covered by
// the resume-pool model: the target is provably NIL (halt), an embryo
// created by COCREATE, or a frame suspended at an XFERO site — never a
// frame suspended inside a call, a trap, or the running frame itself.
func (v value) transferable() bool {
	return v.kind == vCtx && v.src&(srcOwn|srcUntracked) == 0
}

// freeable reports whether a FREE of this context word can be certified at
// all: only frames we created, or the retained own frames a procedure
// hands back (checked against the all-returns-retained bit separately).
// Freeing a caller or transferrer (srcEntered) tears down a live frame.
func (v value) freeable() bool {
	return v.kind == vCtx && v.src&(srcEntered|srcUntracked) == 0 &&
		v.src&(srcCreated|srcOwn) != 0
}

// pushVal appends v to a copied vals slice (vals are shared across joins,
// so never mutated in place); nil stays nil.
func pushVal(vals []value, d interval, v value) []value {
	if vals == nil {
		if d.lo != d.hi {
			return nil
		}
		vals = make([]value, 0, d.lo+1)
		for i := 0; i < d.lo; i++ {
			vals = append(vals, topVal)
		}
	}
	out := make([]value, len(vals)+1)
	copy(out, vals)
	out[len(vals)] = v
	return out
}

// valAt reads stack slot i (0 = bottom); absent tracking reads top.
func valAt(vals []value, i int) value {
	if vals == nil || i < 0 || i >= len(vals) {
		return topVal
	}
	return vals[i]
}

// dropPush models a generic effect: pop `pops` slots, push `pushes`
// unknown results. Returns nil when the inputs aren't tracked.
func dropPush(vals []value, pops, pushes int) []value {
	if vals == nil || pops > len(vals) {
		return nil
	}
	out := make([]value, len(vals)-pops, len(vals)-pops+pushes)
	copy(out, vals[:len(vals)-pops])
	for i := 0; i < pushes; i++ {
		out = append(out, topVal)
	}
	return out
}

// joinVals joins two stacks pointwise; arity mismatch or an untracked side
// loses tracking. a is the prior state (widening direction).
func joinVals(a, b []value) []value {
	if a == nil || b == nil || len(a) != len(b) {
		return nil
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		return a
	}
	out := make([]value, len(a))
	for i := range a {
		out[i] = a[i].join(b[i])
	}
	return out
}

// scrubSlot clears stale local-load marks after an SL to the slot: stack
// copies loaded before the store no longer equal the local's value. vals
// must be freshly allocated (dropPush output), so in-place is safe.
func scrubSlot(vals []value, mark uint8) []value {
	for i := range vals {
		if vals[i].slot == mark {
			vals[i].slot = 0
		}
	}
	return vals
}

// locGet reads the flow-sensitive local value; absent slots read top.
func locGet(locs []value, slot int) value {
	if slot < 0 || slot >= len(locs) {
		return topVal
	}
	return locs[slot]
}

// locSet writes the flow-sensitive local value, copy-on-write, trimming
// trailing tops so states stay canonical (equal states compare equal).
func locSet(locs []value, slot int, v value) []value {
	if slot < 0 || slot >= 64 {
		return locs
	}
	v = v.clearSlot()
	if v == topVal && slot >= len(locs) {
		return locs
	}
	n := len(locs)
	if slot+1 > n {
		n = slot + 1
	}
	out := make([]value, n)
	copy(out, locs)
	out[slot] = v
	for len(out) > 0 && out[len(out)-1] == topVal {
		out = out[:len(out)-1]
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// joinLocs joins the flow-sensitive locals pointwise; absent slots are
// top, and trailing tops are trimmed to keep the canonical form.
func joinLocs(a, b []value) []value {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for n > 0 {
		if j := a[n-1].join(b[n-1]); j != topVal {
			break
		}
		n--
	}
	if n == 0 {
		return nil
	}
	same := n == len(a)
	if same {
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		return a
	}
	out := make([]value, n)
	for i := 0; i < n; i++ {
		out[i] = a[i].join(b[i])
	}
	for len(out) > 0 && out[len(out)-1] == topVal {
		out = out[:len(out)-1]
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func locsEqual(a, b []value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// isProcWord reports whether v is a known constant carrying the procedure
// descriptor tag.
func (v value) isProcWord() bool { return v.kind == vWord && image.IsProc(v.word) }
