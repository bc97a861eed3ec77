package verify

import (
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Stage 1 of the verifier: the per-procedure summary engine. step() is the
// abstract transfer function over absState; procedures are entered once in
// the canonical [0,0] context and summarized at their RETs (result depth,
// result values, freed set), call sites consume summaries, and XFERO
// sites with tracked targets feed the per-region resume pools. All side
// tables grow monotonically and requeue their registered readers, and so
// do the lost-family marks (lose), so the worklist converges to one
// fixpoint regardless of step order.

// Site-registration kinds (dedup keys in a.siteSeen).
const (
	siteXfer = iota
	siteLRC
	siteLL
	siteFree
	siteTrap
)

// addSite registers pc as a reader on list; r is the owning region (0 for
// the program-wide lists).
func (a *analyzer) addSite(list *[]uint32, kind, r int, pc uint32) {
	key := uint64(kind)<<60 | uint64(uint32(r))<<30 | uint64(pc)
	if !a.siteSeen[key] {
		a.siteSeen[key] = true
		*list = append(*list, pc)
	}
}

// freedMay reports whether a frame or record of sites may already be gone:
// it is in the flowing freed set, or the freed-set family is lost.
func (a *analyzer) freedMay(sites, freed regSet) bool {
	return a.lost&lostFreed != 0 || sites.intersects(freed)
}

// topState widens the stack to unknown while keeping the frame-local facts
// (assigned locals, retain mark, freed sets, local values) that a wild
// stack cannot invalidate on its own.
func topState(s absState) absState {
	return s.deriv(top)
}

// xferSrcAdd records that a frame of region src can transfer into region
// T, so T's retctx may name an src frame suspended at an XFERO.
func (a *analyzer) xferSrcAdd(T, src int) {
	if !a.xferSrc[T].has(src) {
		a.xferSrc[T] = a.xferSrc[T].add(src)
		for _, p := range a.lrcSites[T] {
			a.enqueue(p)
		}
	}
}

// bumpPool folds one transfer (cross-depth dx, transferring region src,
// freed mask) into region T's resume pool and wakes T's XFERO sites.
func (a *analyzer) bumpPool(T, dx, src int, freed regSet) {
	changed := false
	if !a.poolOK[T] {
		a.poolOK[T] = true
		a.pool[T] = interval{dx, dx}
		changed = true
	} else if j := a.pool[T].join(interval{dx, dx}); j != a.pool[T] {
		a.pool[T] = j
		changed = true
	}
	if u := a.poolFreed[T].union(freed); u != a.poolFreed[T] {
		a.poolFreed[T] = u
		changed = true
	}
	if changed {
		for _, p := range a.xferSites[T] {
			a.enqueue(p)
		}
	}
	a.xferSrcAdd(T, src)
}

// handlerResults joins the result summaries of all known trap handlers.
func (a *analyzer) handlerResults() (interval, bool) {
	var rh interval
	ok := false
	a.handlers.forEach(func(T int) {
		if !a.sumOK[T] {
			return
		}
		if !ok {
			rh, ok = a.sum[T], true
		} else {
			rh = rh.join(a.sum[T])
		}
	})
	return rh, ok
}

func (a *analyzer) handlerFreed() regSet {
	var f regSet
	a.handlers.forEach(func(T int) {
		f = f.union(a.sumFreed[T])
	})
	return f
}

// recSite returns the stable allocation-site index of the AFB at pc,
// registering it on first sight. Programs with more reachable AFB sites
// than the set width degrade those allocations to untracked words.
func (a *analyzer) recSite(pc uint32) (int, bool) {
	if s, ok := a.recSiteOf[pc]; ok {
		return s, true
	}
	if len(a.sitePayload) >= maxTrackedRegions {
		return 0, false
	}
	fsi := int(a.insts[pc].Arg)
	if fsi < 0 || fsi >= len(a.p.FrameSizes) {
		return 0, false
	}
	s := len(a.sitePayload)
	a.recSiteOf[pc] = s
	a.sitePayload = append(a.sitePayload, a.p.FrameSizes[fsi])
	return s, true
}

// minSitePayload is the smallest record body any site of the set grants:
// the bound certified writes must stay under.
func (a *analyzer) minSitePayload(sites regSet) int {
	min := -1
	sites.forEach(func(s int) {
		if s < len(a.sitePayload) && (min < 0 || a.sitePayload[s] < min) {
			min = a.sitePayload[s]
		}
	})
	return min
}

// applyEffect applies a fixed stack effect at pc: a definite fault ends
// the path and is judged by certify against the final state (the interval
// may still widen through resume pools and callee summaries); possible
// faults are certificate-blocking Warns (the surviving depths continue).
func (a *analyzer) applyEffect(pc uint32, d interval, pops, pushes int) (interval, bool) {
	if d.hi < pops {
		a.defFlow[pc] = [2]int{pops, pushes}
		return interval{}, false
	}
	if d.lo < pops {
		a.diagCert(pc, ReasonMaybeUnderflow,
			"%s pops %d with as few as %d on the stack", a.insts[pc].Op, pops, d.lo)
	}
	after := interval{d.lo - pops, d.hi - pops}
	if after.lo < 0 {
		after.lo = 0
	}
	if after.lo+pushes > maxDepth {
		a.defFlow[pc] = [2]int{pops, pushes}
		return interval{}, false
	}
	if after.hi+pushes > maxDepth {
		a.diagCert(pc, ReasonMaybeOverflow,
			"%s can push to depth %d past the %d-word stack", a.insts[pc].Op, after.hi+pushes, maxDepth)
		after.hi = maxDepth - pushes
	}
	after.lo += pushes
	after.hi += pushes
	return after, true
}

func (a *analyzer) step(pc uint32, s absState) {
	in := &a.insts[pc]
	if !in.Valid() {
		reason := ReasonTruncated
		if isa.Op(a.code[pc]) >= isa.NumOps {
			reason = ReasonBadOpcode
		}
		a.diag(pc, LevelError, reason, "%v", in.Err(a.code, int(pc)))
		return
	}
	if r := a.regionOf[pc]; r >= 0 && s.d.hi > a.maxHi[r] {
		a.maxHi[r] = s.d.hi
	}
	op := in.Op
	next := pc + uint32(in.Size)

	switch {
	case op == isa.HALT:
		return

	case op == isa.RET:
		a.doRet(pc, s)
		return

	case op.IsJump():
		a.doJump(pc, in, s, next)
		return

	case op.IsCall():
		a.doCall(pc, in, s, next)
		return

	case op == isa.XFERO:
		a.doXfer(pc, s, next)
		return

	case op == isa.TRAPB:
		a.doTrapB(pc, s, next)
		return

	case op == isa.DIV || op == isa.MOD:
		a.doDivMod(pc, s, next)
		return

	case op == isa.STRAP:
		a.doStrap(pc, s, next)
		return

	case op == isa.COCREATE:
		a.doCocreate(pc, in, s, next)
		return

	case op == isa.FREE:
		a.doFree(pc, s, next)
		return

	case op == isa.FFREE:
		a.doFFree(pc, s, next)
		return

	case op == isa.STIND || op == isa.WFB:
		a.doStore(pc, in, s, next)
		return
	}

	// Remaining opcodes have a fixed effect from the metadata table, plus
	// per-opcode operand sanity checks and value transfer.
	info := isa.InfoOf(op)
	if info.Pops < 0 || info.Pushes < 0 {
		// Defensive: a variable effect not handled above.
		a.diagCert(pc, ReasonDynamicTransfer, "%s has a state-dependent stack effect", op)
		a.propagate(pc, next, topState(s))
		return
	}
	switch {
	case op >= isa.LL0 && op <= isa.LAB:
		a.checkLocal(pc, in)
	case op >= isa.LG0 && op <= isa.SGB:
		a.checkGlobal(pc, in)
	case op == isa.AFB:
		if int(in.Arg) >= len(a.p.FrameSizes) {
			a.diag(pc, LevelError, ReasonBadFrameSize,
				"AFB class %d outside the %d-class frame-size table", in.Arg, len(a.p.FrameSizes))
			return
		}
	}
	after, ok := a.applyEffect(pc, s.d, int(info.Pops), int(info.Pushes))
	if !ok {
		return
	}
	out := s.deriv(after)
	if op == isa.RETAIN {
		out.ret = true
	}
	if after.exact() {
		a.stepValues(pc, in, s, &out)
	}
	a.propagate(pc, next, out)
}

// doStore handles STIND and WFB. A store the record model can bound — a
// tracked record pointer, sites alive, offset under every site's payload —
// stays inside run-allocated storage and is certifiable. Anything else can
// rewrite any frame's locals, so the local-value family is lost.
func (a *analyzer) doStore(pc uint32, in *isa.Inst, s absState, next uint32) {
	op := in.Op
	a.addSite(&a.freeSites, siteFree, 0, pc)
	if s.d.exact() && s.vals != nil && s.d.lo >= 2 {
		ptr := s.vals[len(s.vals)-1]
		off := 0
		if op == isa.WFB {
			off = int(in.Arg)
		}
		if ptr.kind == vRec && !ptr.regs.empty() && !a.freedMay(ptr.regs, s.frec) {
			if max := a.minSitePayload(ptr.regs); max >= 0 && int(ptr.hi)+off < max {
				out := s.deriv(interval{s.d.lo - 2, s.d.lo - 2})
				out.vals = dropPush(s.vals, 2, 0)
				a.propagate(pc, next, out)
				return
			}
		}
	}
	a.lose(lostLocals)
	a.diagCert(pc, ReasonHeapStore,
		"%s stores through an arbitrary pointer and can reach frame or table linkage", op)
	info := isa.InfoOf(op)
	if after, ok := a.applyEffect(pc, s.d, int(info.Pops), int(info.Pushes)); ok {
		a.propagate(pc, next, s.deriv(after))
	}
}

// doFFree handles FFREE: releasing a tracked record pointer at offset zero
// returns exactly the storage an AFB granted. The freed sites join the
// freed-record set, so later stores through stale pointers to them fall
// out of the model. Anything else loses the freed-set family.
func (a *analyzer) doFFree(pc uint32, s absState, next uint32) {
	a.addSite(&a.freeSites, siteFree, 0, pc)
	if s.d.exact() && s.vals != nil && s.d.lo >= 1 {
		v := s.vals[len(s.vals)-1]
		if v.kind == vRec && v.lo == 0 && v.hi == 0 && !v.regs.empty() && !a.freedMay(v.regs, s.frec) {
			out := s.deriv(interval{s.d.lo - 1, s.d.lo - 1})
			out.vals = dropPush(s.vals, 1, 0)
			out.frec = s.frec.union(v.regs)
			a.propagate(pc, next, out)
			return
		}
	}
	a.untrackedFree(pc, s, next)
}

// untrackedFree is a FREE or FFREE of a context the model cannot follow:
// it may release any frame or record, so the freed-set family is lost.
func (a *analyzer) untrackedFree(pc uint32, s absState, next uint32) {
	a.lose(lostFreed)
	a.diagCert(pc, ReasonUnsafeFree, "%s releases a context the verifier cannot track", a.insts[pc].Op)
	if after, ok := a.applyEffect(pc, s.d, 1, 0); ok {
		a.propagate(pc, next, s.deriv(after))
	}
}

// stepValues transfers the value stack across a fixed-effect opcode; out.d
// is exact here, so materializing unknown slots is always well-defined.
func (a *analyzer) stepValues(pc uint32, in *isa.Inst, s absState, out *absState) {
	op := in.Op
	info := isa.InfoOf(op)
	out.vals = dropPush(s.vals, int(info.Pops), int(info.Pushes))
	r := int(a.regionOf[pc])
	setTop := func(v value) {
		if out.vals == nil {
			out.vals = materialize(nil, out.d.lo)
		}
		out.vals[len(out.vals)-1] = v
	}
	switch {
	case op >= isa.LIN1 && op <= isa.LIW:
		setTop(wordVal(mem.Word(uint16(in.Arg))))

	case op == isa.LRC:
		if r >= 0 && r < maxTrackedRegions {
			a.addSite(&a.lrcSites[r], siteLRC, r, pc)
			if a.callEntered[r] || a.lost&(lostXfer|lostTraps) != 0 {
				// A caller's or trapper's frame, suspended inside a call —
				// or, with the pools or the handler set lost, a frame the
				// model cannot place: outside the resume-pool model.
				setTop(ctxVal(srcUntracked, regSet{}))
			} else {
				setTop(ctxVal(srcEntered|srcZero, a.xferSrc[r]))
			}
		}

	case op == isa.LLF:
		if r >= 0 && r < maxTrackedRegions {
			setTop(ctxVal(srcOwn, rs1(r)))
		}

	case op == isa.AFB:
		if site, ok := a.recSite(pc); ok {
			setTop(value{kind: vRec, regs: rs1(site)})
		}

	case op == isa.ADD || op == isa.SUB:
		x, y := valAt(s.vals, s.d.lo-2), valAt(s.vals, s.d.lo-1)
		var v value
		var ok bool
		if op == isa.ADD {
			v, ok = addVals(x, y)
		} else {
			v, ok = subVals(x, y)
		}
		if ok {
			setTop(v)
		}

	case op == isa.DUP:
		v := valAt(s.vals, s.d.lo-1)
		if v != topVal {
			if out.vals == nil {
				out.vals = materialize(nil, out.d.lo)
			}
			out.vals[len(out.vals)-1] = v
			out.vals[len(out.vals)-2] = v
		}

	case op == isa.EXCH:
		x, y := valAt(s.vals, s.d.lo-1), valAt(s.vals, s.d.lo-2)
		if x != topVal || y != topVal {
			if out.vals == nil {
				out.vals = materialize(nil, out.d.lo)
			}
			out.vals[len(out.vals)-1] = y
			out.vals[len(out.vals)-2] = x
		}

	case (op >= isa.LL0 && op <= isa.LL7) || op == isa.LLB:
		slot := int(in.Arg)
		if r >= 0 && slot < 64 && s.stored>>uint(slot)&1 == 1 {
			a.addSite(&a.llSites[r], siteLL, r, pc)
			// Prefer the flow-sensitive value (it carries branch
			// refinements the flow-insensitive environment joins away),
			// and mark the copy so a later compare-branch can refine the
			// local through it. A lost local family reads top.
			v := locGet(s.locs, slot)
			if v == topVal {
				v = a.envGet(r, slot)
			}
			if a.lost&lostLocals != 0 {
				v = topVal
			}
			v.slot = uint8(slot + 1)
			setTop(v)
		}

	case (op >= isa.SL0 && op <= isa.SL7) || op == isa.SLB:
		slot := int(in.Arg)
		if r >= 0 && slot < 64 {
			out.stored |= uint64(1) << uint(slot)
			sv := valAt(s.vals, s.d.lo-1).clearSlot()
			a.envSet(r, slot, sv)
			out.locs = locSet(s.locs, slot, sv)
			if out.vals != nil {
				out.vals = scrubSlot(out.vals, uint8(slot+1))
			}
		}
	}
}

func materialize(vals []value, n int) []value {
	if vals != nil {
		return vals
	}
	out := make([]value, n)
	for i := range out {
		out[i] = topVal
	}
	return out
}

// envGet / envSet maintain the flow-insensitive per-region local value
// environment; reads are guarded by the per-pc must-assigned bit.
func (a *analyzer) envGet(r, slot int) value {
	env := a.env[r]
	if slot >= len(env) {
		return topVal
	}
	return env[slot]
}

func (a *analyzer) envSet(r, slot int, v value) {
	env := a.env[r]
	for len(env) <= slot {
		env = append(env, value{}) // zero value is never read before a store sets it
	}
	old := env[slot]
	var j value
	if a.envInit[r]>>uint(slot)&1 == 0 {
		a.envInit[r] |= uint64(1) << uint(slot)
		j = v
	} else {
		j = old.join(v)
	}
	env[slot] = j
	a.env[r] = env
	if j != old {
		for _, p := range a.llSites[r] {
			a.enqueue(p)
		}
	}
}

// checkLocal bounds local-variable accesses against the procedure's frame
// class. A load past the frame reads a neighbouring heap word (garbage but
// harmless); a store there corrupts the neighbour, so it blocks the
// certificate.
func (a *analyzer) checkLocal(pc uint32, in *isa.Inst) {
	r := a.regionOf[pc]
	if r < 0 || a.regions[r].fsi >= len(a.p.FrameSizes) {
		return
	}
	payload := a.p.FrameSizes[a.regions[r].fsi]
	off := image.FrameHeaderWords + int(in.Arg)
	if off < payload {
		return
	}
	op := in.Op
	store := (op >= isa.SL0 && op <= isa.SL7) || op == isa.SLB
	if store {
		// The store lands in a neighbouring frame or record: facts about
		// other frames' locals no longer hold.
		a.lose(lostLocals)
		a.diagCert(pc, ReasonLocalRange,
			"%s local %d: word %d of a %d-word frame (class %d)", op, in.Arg, off, payload, a.regions[r].fsi)
	} else {
		a.diag(pc, LevelWarn, ReasonLocalRange,
			"%s local %d: word %d of a %d-word frame (class %d)", op, in.Arg, off, payload, a.regions[r].fsi)
	}
}

// checkGlobal bounds global accesses against the module's declared global
// count; a store past it lands in the neighbouring link vector or frame.
func (a *analyzer) checkGlobal(pc uint32, in *isa.Inst) {
	r := a.regionOf[pc]
	if r < 0 {
		return
	}
	ng := a.regions[r].inst.Module.NumGlobals
	if int(in.Arg) < ng {
		return
	}
	if in.Op == isa.SGB {
		a.diagCert(pc, ReasonGlobalRange,
			"SGB global %d of %d in module %s", in.Arg, ng, a.regions[r].inst.Module.Name)
	} else {
		a.diag(pc, LevelWarn, ReasonGlobalRange,
			"%s global %d of %d in module %s", in.Op, in.Arg, ng, a.regions[r].inst.Module.Name)
	}
}

func (a *analyzer) doJump(pc uint32, in *isa.Inst, s absState, next uint32) {
	info := isa.InfoOf(in.Op)
	after, ok := a.applyEffect(pc, s.d, int(info.Pops), 0)
	if !ok {
		return
	}
	out := s.deriv(after)
	if after.exact() {
		out.vals = dropPush(s.vals, int(info.Pops), 0)
	}
	t := in.Target
	badTarget := int64(t) >= int64(len(a.code)) || !a.insts[t].Valid()
	if badTarget {
		a.diag(pc, LevelError, ReasonBadJumpTarget,
			"%s to %06x: no instruction decodes there", in.Op, t)
	} else if !a.boundary[t] {
		a.diag(pc, LevelWarn, ReasonJumpIntoOperands,
			"%s lands at %06x, inside another instruction's operand bytes", in.Op, t)
	}
	if !badTarget {
		if st, feasible := a.refineBranch(out, s, in.Op, true); feasible {
			a.propagate(pc, t, st)
		}
	}
	if in.Op != isa.JB && in.Op != isa.JW {
		if st, feasible := a.refineBranch(out, s, in.Op, false); feasible {
			a.propagate(pc, next, st) // conditional: may fall through
		}
	}
}

// negateCmp maps a compare-branch opcode to the opcode whose taken
// condition is its fall-through condition.
func negateCmp(op isa.Op) isa.Op {
	switch op {
	case isa.JEB:
		return isa.JNEB
	case isa.JNEB:
		return isa.JEB
	case isa.JLB:
		return isa.JGEB
	case isa.JGEB:
		return isa.JLB
	case isa.JLEB:
		return isa.JGB
	case isa.JGB:
		return isa.JLEB
	}
	return op
}

// refineBranch narrows the branch operands' ranges on one outgoing edge of
// a conditional jump and writes them back through their local-slot marks,
// pruning edges the operand ranges prove infeasible. Pruning is monotone:
// ranges only grow across the fixpoint, so an edge can only flip from
// infeasible to feasible, never back. The refined facts are what certify a
// guarded loop counter: `while (i < k)` caps i at k-1 inside the body.
func (a *analyzer) refineBranch(out, s absState, op isa.Op, taken bool) (absState, bool) {
	if !s.d.exact() || s.vals == nil {
		return out, true
	}
	switch op {
	case isa.JZB, isa.JNZB:
		v := valAt(s.vals, s.d.lo-1)
		wantZero := (op == isa.JZB) == taken
		lo, hi, ok := v.rangeOf()
		if wantZero {
			if ok && lo > 0 {
				return out, false
			}
			return refineSlot(out, v, wordVal(0)), true
		}
		if !ok {
			return out, true
		}
		if hi == 0 {
			return out, false
		}
		if lo == 0 {
			lo = 1
		}
		return refineSlot(out, v, rangeVal(lo, hi)), true

	case isa.JEB, isa.JNEB, isa.JLB, isa.JLEB, isa.JGB, isa.JGEB:
		x, y := valAt(s.vals, s.d.lo-2), valAt(s.vals, s.d.lo-1)
		xlo, xhi, xok := x.rangeOf()
		ylo, yhi, yok := y.rangeOf()
		if !xok || !yok {
			return out, true
		}
		cond := op
		if !taken {
			cond = negateCmp(op)
		}
		if cond != isa.JEB && cond != isa.JNEB && (xhi > 0x7FFF || yhi > 0x7FFF) {
			// The machine compares signed; range refinement is only sound
			// where the signed and unsigned orders agree.
			return out, true
		}
		rxlo, rxhi, rylo, ryhi := xlo, xhi, ylo, yhi
		switch cond {
		case isa.JEB: // x == y
			rxlo, rylo = maxW(xlo, ylo), maxW(xlo, ylo)
			rxhi, ryhi = minW(xhi, yhi), minW(xhi, yhi)
		case isa.JNEB: // x != y
			if xlo == xhi && ylo == yhi && xlo == ylo {
				return out, false
			}
			if ylo == yhi { // trim a singleton off x's endpoints
				if xlo == ylo {
					rxlo = xlo + 1
				} else if xhi == ylo {
					rxhi = xhi - 1
				}
			}
			if xlo == xhi {
				if ylo == xlo {
					rylo = ylo + 1
				} else if yhi == xlo {
					ryhi = yhi - 1
				}
			}
		case isa.JLB: // x < y
			if yhi == 0 {
				return out, false
			}
			rxhi = minW(xhi, yhi-1)
			rylo = maxW(ylo, xlo+1)
		case isa.JLEB: // x <= y
			rxhi = minW(xhi, yhi)
			rylo = maxW(ylo, xlo)
		case isa.JGB: // x > y
			if xhi == 0 {
				return out, false
			}
			rxlo = maxW(xlo, ylo+1)
			ryhi = minW(yhi, xhi-1)
		case isa.JGEB: // x >= y
			rxlo = maxW(xlo, ylo)
			ryhi = minW(yhi, xhi)
		}
		if rxlo > rxhi || rylo > ryhi {
			return out, false
		}
		if rxlo != xlo || rxhi != xhi {
			out = refineSlot(out, x, rangeVal(rxlo, rxhi))
		}
		if rylo != ylo || ryhi != yhi {
			out = refineSlot(out, y, rangeVal(rylo, ryhi))
		}
		return out, true
	}
	return out, true
}

// refineSlot writes a refined operand value back into the flow-sensitive
// local it was loaded from, if the copy still carries its load mark.
func refineSlot(out absState, v, refined value) absState {
	if v.slot != 0 {
		out.locs = locSet(out.locs, int(v.slot)-1, refined)
	}
	return out
}

func minW(a, b mem.Word) mem.Word {
	if a < b {
		return a
	}
	return b
}

func maxW(a, b mem.Word) mem.Word {
	if a > b {
		return a
	}
	return b
}

// doRet folds the state at a RET into its procedure's summary (result
// depth, result values, freed set, retain discipline) and requeues every
// call and transfer site waiting on it.
func (a *analyzer) doRet(pc uint32, s absState) {
	r := a.regionOf[pc]
	if r < 0 {
		a.diagCert(pc, ReasonCrossProcFlow, "RET outside any procedure; its result depth cannot be attributed")
		return
	}
	a.retSeen[r] = true
	if !s.ret {
		a.retainedAll[r] = false
	}
	changed := false
	if !a.sumOK[r] {
		a.sumOK[r] = true
		a.sum[r] = s.d
		changed = true
	} else if j := a.sum[r].join(s.d); j != a.sum[r] {
		a.sum[r] = j
		changed = true
	}
	rv := sanitizeSummary(s.vals)
	if !a.sumValsN[r] {
		a.sumValsN[r] = true
		a.sumVals[r] = rv
		changed = true
	} else if j := joinVals(a.sumVals[r], rv); !valsEqual(j, a.sumVals[r]) {
		a.sumVals[r] = j
		changed = true
	}
	if u := a.sumFreed[r].union(s.freed); u != a.sumFreed[r] {
		a.sumFreed[r] = u
		changed = true
	}
	if !changed {
		return
	}
	for _, site := range a.deps[r] {
		a.enqueue(site)
	}
	if r < maxTrackedRegions && a.handlers.has(int(r)) {
		for _, site := range a.trapSites {
			a.enqueue(site)
		}
	}
}

// sanitizeSummary strips frame-local facts from a result-stack summary
// before it crosses the procedure boundary: record pointers name the
// callee's allocation sites (whose freed-record set the caller does not
// carry), and slot marks name the callee's locals.
func sanitizeSummary(vals []value) []value {
	clean := true
	for _, v := range vals {
		if v.kind == vRec || v.slot != 0 {
			clean = false
			break
		}
	}
	if clean {
		return vals
	}
	out := make([]value, len(vals))
	for i, v := range vals {
		if v.kind == vRec {
			out[i] = topVal
		} else {
			out[i] = v.clearSlot()
		}
	}
	return out
}

func valsEqual(x, y []value) bool {
	if (x == nil) != (y == nil) || len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func (a *analyzer) doCall(pc uint32, in *isa.Inst, s absState, next uint32) {
	op := in.Op
	r := a.regionOf[pc]
	var entry uint32
	var fsi int
	var ok bool

	switch {
	case op.IsExternalCall():
		if r < 0 {
			a.diagCert(pc, ReasonIrregularCall, "external call outside any procedure")
			a.mayEdge(pc)
			a.propagate(pc, next, topState(s))
			return
		}
		inst := a.regions[r].inst
		slot := int(in.Arg)
		if !a.importSlotOK(pc, inst, slot) {
			a.untrackedCall(pc, s, next)
			return
		}
		ctx, present := a.data[inst.GF-1-mem.Addr(slot)]
		if !present || ctx == 0 {
			// The machine XFERs to NIL: the computation halts there.
			a.diagCert(pc, ReasonUnresolvedLink,
				"link vector slot %d of %s is empty", slot, inst.Module.Name)
			a.mayEdge(pc)
			return
		}
		if !image.IsProc(ctx) {
			// The F3 fallback: xferOut plus a transfer to whatever the slot
			// holds — outside the value model entirely.
			a.diagCert(pc, ReasonUnresolvedLink,
				"link vector slot %d of %s holds %04x, not a procedure descriptor", slot, inst.Module.Name, ctx)
			a.untrackedCall(pc, s, next)
			return
		}
		entry, fsi, ok = a.resolveDescriptor(ctx, ReasonBadDescriptor, a.loud(pc, ""))

	case op.IsLocalCall():
		if r < 0 {
			a.diagCert(pc, ReasonIrregularCall, "local call outside any procedure")
			a.mayEdge(pc)
			a.propagate(pc, next, topState(s))
			return
		}
		inst := a.regions[r].inst
		if ev := int(in.Arg); ev >= len(inst.EVOffsets) {
			a.diag(pc, LevelError, ReasonBadEntryVector,
				"%s entry %d past the %d-slot entry vector of %s", op, ev, len(inst.EVOffsets), inst.Module.Name)
			return
		}
		entry, fsi, ok = a.resolveEntry(inst.CodeBase, int(in.Arg), ReasonBadEntryVector, a.loud(pc, ""))

	default: // DCALL / SDCALL
		if !in.CallOK {
			a.diag(pc, LevelError, ReasonBadCallHeader,
				"%s header at %06x lies outside the %d-byte code space", op, in.Target, len(a.code))
			return
		}
		entry = in.Target + isa.HeaderSkip
		fsi = int(in.FSI)
		if int64(entry) >= int64(len(a.code)) || !a.insts[entry].Valid() {
			a.diag(pc, LevelError, ReasonBadCallHeader,
				"%s entry %06x does not decode", op, entry)
			return
		}
		if fsi >= len(a.p.FrameSizes) {
			a.diag(pc, LevelError, ReasonBadFrameSize,
				"%s header class %d outside the %d-class frame-size table", op, fsi, len(a.p.FrameSizes))
			return
		}
		if cr, isEntry := a.entryRegion[entry]; isEntry && !a.headerGFOK(pc, in, a.regions[cr].inst) {
			a.untrackedCall(pc, s, next)
			return
		}
		ok = true
	}
	if !ok {
		return
	}
	a.finishCall(pc, next, s, entry, fsi)
}

// untrackedCall is a call whose destination the model cannot follow: the
// machine may transfer to any context, so the resume pools and LRC
// provenance are lost and the caller resumes with an unknown stack.
func (a *analyzer) untrackedCall(pc uint32, s absState, next uint32) {
	a.lose(lostXfer)
	a.mayEdge(pc)
	a.propagate(pc, next, topState(s))
}

// finishCall wires a resolved call site: the arg-record fit check, the
// call edge, and the interprocedural fall-through (the callee's summary
// becomes the caller's state after the call).
func (a *analyzer) finishCall(pc, next uint32, s absState, entry uint32, fsi int) {
	a.edge(pc, entry, EdgeCall)
	if payload := a.p.FrameSizes[fsi]; image.FrameHeaderWords+s.d.hi > payload {
		a.diagCert(pc, ReasonArgOverrun,
			"call can carry %d stack words into a %d-word frame (class %d)", s.d.hi, payload, fsi)
	}
	cr, isEntry := a.entryRegion[entry]
	if !isEntry {
		// The target decodes but is not a procedure entry the linker laid
		// out: its RETs cannot be attributed, so its result depth is
		// unknown, and its locals run in a frame of another class.
		a.lose(lostLocals)
		a.diagCert(pc, ReasonIrregularCall,
			"call target %06x is not a linked procedure entry", entry)
		a.joinInto(entry, a.entryState(s.freed))
		a.propagate(pc, next, topState(s))
		return
	}
	a.markCallEntered(cr)
	a.joinInto(entry, a.entryState(s.freed))
	a.addDep(cr, pc)
	if a.sumOK[cr] {
		out := s.deriv(a.sum[cr])
		out.freed = out.freed.union(a.sumFreed[cr])
		if out.d.exact() && a.sumValsN[cr] && len(a.sumVals[cr]) == out.d.lo {
			out.vals = a.sumVals[cr]
		}
		a.propagate(pc, next, out)
	}
	// Summary still unknown: the callee provably never returns (yet); the
	// fall-through stays unreached until a RET appears.
}

// addDep registers site pc as waiting on region r's result summary.
func (a *analyzer) addDep(r int, pc uint32) {
	key := uint64(r)<<32 | uint64(pc)
	if !a.depSeen[key] {
		a.depSeen[key] = true
		a.deps[r] = append(a.deps[r], pc)
	}
}

// xferFallback is an XFERO whose target the model cannot pin down: the
// resume pools and LRC provenance are lost, and this frame resumes with
// an unknown stack.
func (a *analyzer) xferFallback(pc uint32, s absState, next uint32) {
	if _, ok := a.applyEffect(pc, s.d, 1, 0); !ok {
		return
	}
	a.diagCert(pc, ReasonDynamicTransfer, "XFERO target and resumption stack are unknown")
	a.untrackedCall(pc, s, next)
}

func (a *analyzer) doXfer(pc uint32, s absState, next uint32) {
	cur := int(a.regionOf[pc])
	if cur < 0 || cur >= maxTrackedRegions || !s.d.exact() || s.vals == nil || s.d.lo < 1 {
		a.xferFallback(pc, s, next)
		return
	}
	v := s.vals[len(s.vals)-1]
	dx := s.d.lo - 1 // cross-depth: the words carried to the target

	// Any successful transfer suspends this frame here; a later transfer
	// into this region resumes it with the pool state.
	a.addSite(&a.xferSites[cur], siteXfer, cur, pc)

	switch {
	case v.kind == vWord && v.word == 0:
		// Transfer to NIL: the computation halts. No successor.
		return

	case v.isProcWord():
		// A descriptor: the machine enterProcs it with this frame as the
		// return link, so the callee's RETURN resumes us with its results —
		// call semantics on a transfer opcode.
		T, ok := a.resolveDescQuiet(v.word)
		if !ok {
			a.xferFallback(pc, s, next)
			return
		}
		treg := a.regions[T]
		a.edge(pc, treg.entry, EdgeXfer)
		if payload := a.p.FrameSizes[treg.fsi]; image.FrameHeaderWords+dx > payload {
			a.diagCert(pc, ReasonArgOverrun,
				"transfer can carry %d stack words into a %d-word frame (class %d)", dx, payload, treg.fsi)
		}
		a.joinInto(treg.entry, a.entryState(s.freed))
		a.xferSrcAdd(T, cur)
		a.addDep(T, pc)
		if a.sumOK[T] {
			out := s.deriv(a.sum[T])
			out.freed = out.freed.union(a.sumFreed[T])
			a.propagate(pc, next, out)
		}

	case v.kind == vCtx && v.transferable() && !a.freedMay(v.regs, s.freed):
		v.regs.forEach(func(T int) {
			treg := a.regions[T]
			a.edge(pc, treg.entry, EdgeXfer)
			if v.src&srcCreated != 0 {
				// The target may be an embryo: starting it delivers the
				// carried words into its fresh frame's locals.
				if payload := a.p.FrameSizes[treg.fsi]; image.FrameHeaderWords+dx > payload {
					a.diagCert(pc, ReasonArgOverrun,
						"transfer can carry %d stack words into a %d-word frame (class %d)", dx, payload, treg.fsi)
				}
				a.joinInto(treg.entry, a.entryState(s.freed))
			}
			a.bumpPool(T, dx, cur, s.freed)
		})

	default:
		// Unknown word, the running frame itself, a possibly
		// call-suspended frame, or one that may already be freed: outside
		// the pool model.
		a.xferFallback(pc, s, next)
		return
	}

	// Resumption of this frame: the depths (and freed sets) of transfers
	// targeting this region. Until a pool forms, the site stays suspended;
	// once the pools are lost, any transfer may resume it.
	switch {
	case a.lost&lostXfer != 0:
		out := s.deriv(top)
		out.freed = out.freed.union(a.poolFreed[cur])
		a.propagate(pc, next, out)
	case a.poolOK[cur]:
		out := s.deriv(a.pool[cur])
		out.freed = out.freed.union(a.poolFreed[cur])
		a.propagate(pc, next, out)
	}
}

// trapRestore is the armed path of a trap site whose operands leave base
// on the stack: the known handlers' result summaries land on top of it,
// and freed is what their subtrees may free. ok is false while no handler
// result is known, or when every armed execution faults on restore.
func (a *analyzer) trapRestore(pc uint32, base interval) (restored interval, freed regSet, ok bool) {
	rh, known := a.handlerResults()
	if !known {
		return interval{}, regSet{}, false
	}
	a.handlers.forEach(func(T int) {
		a.edge(pc, a.regions[T].entry, EdgeTrap)
	})
	lo, hi := base.lo+rh.lo, base.hi+rh.hi
	if hi > maxDepth {
		a.diagCert(pc, ReasonMaybeOverflow,
			"trap handler results can restore to depth %d past the %d-word stack", hi, maxDepth)
		hi = maxDepth
	}
	if lo > maxDepth { // every armed execution faults on restore
		return interval{}, regSet{}, false
	}
	return interval{lo, hi}, a.handlerFreed(), true
}

func (a *analyzer) doTrapB(pc uint32, s absState, next uint32) {
	a.addSite(&a.trapSites, siteTrap, 0, pc)
	if a.lost&lostTraps != 0 {
		// An unknown handler's RETURN restores the trapper's operands
		// beneath its results: at least d.lo words, at most a full stack.
		a.mayEdge(pc)
		a.propagate(pc, next, s.deriv(interval{s.d.lo, maxDepth}))
		return
	}
	var out interval
	any := false
	// Unarmed path: the Go hook pushes the unhandled marker (on certified
	// machines an unarmed TRAPB is a clean terminal error instead). A
	// definite or possible overflow here is reported by certify() only if
	// no reachable STRAP ever arms a handler.
	if s.d.lo+1 <= maxDepth {
		out, any = interval{s.d.lo + 1, min(s.d.hi+1, maxDepth)}, true
	}
	freed := s.freed
	if a.armed {
		if armedAfter, hf, ok := a.trapRestore(pc, s.d); ok {
			if any {
				out = out.join(armedAfter)
			} else {
				out, any = armedAfter, true
			}
			freed = freed.union(hf)
		}
	}
	if any {
		o := s.deriv(out)
		o.freed = freed
		if s.d.exact() && out.exact() && out.lo == s.d.lo+1 {
			// Both paths preserve the operand prefix and push one word.
			o.vals = dropPush(s.vals, 0, 1)
		}
		a.propagate(pc, next, o)
	}
}

func (a *analyzer) doDivMod(pc uint32, s absState, next uint32) {
	a.addSite(&a.trapSites, siteTrap, 0, pc)
	after, ok := a.applyEffect(pc, s.d, 2, 1)
	if !ok {
		return
	}
	if a.lost&lostTraps != 0 {
		// Division by zero can transfer to an unknown handler; its results
		// replace the quotient.
		a.propagate(pc, next, s.deriv(interval{after.lo - 1, maxDepth}))
		return
	}
	out := after
	freed := s.freed
	if a.armed {
		// Operands consumed, quotient not pushed.
		if restored, hf, ok := a.trapRestore(pc, interval{after.lo - 1, after.hi - 1}); ok {
			out = out.join(restored)
			freed = freed.union(hf)
		}
	}
	o := s.deriv(out)
	o.freed = freed
	if out == after && out.exact() {
		o.vals = dropPush(s.vals, 2, 1)
	}
	a.propagate(pc, next, o)
}

func (a *analyzer) doStrap(pc uint32, s absState, next uint32) {
	if s.d.exact() && s.vals != nil && s.d.lo >= 1 {
		v := s.vals[len(s.vals)-1]
		out := s.deriv(interval{s.d.lo - 1, s.d.lo - 1})
		out.vals = dropPush(s.vals, 1, 0)
		if v.kind == vWord && v.word == 0 {
			// Disarms the trap handler: no dynamic behaviour at all.
			a.propagate(pc, next, out)
			return
		}
		if v.isProcWord() {
			if T, ok := a.resolveDescQuiet(v.word); ok {
				a.edge(pc, a.regions[T].entry, EdgeTrap)
				if !a.armed || !a.handlers.has(T) {
					a.armed = true
					a.handlers = a.handlers.add(T)
					a.markCallEntered(T)
					for _, site := range a.trapSites {
						a.enqueue(site)
					}
				}
				a.propagate(pc, next, out)
				return
			}
		}
	}
	// A word the machine would transfer into blindly on the next trap.
	a.lose(lostTraps)
	a.diagCert(pc, ReasonDynamicTransfer, "STRAP installs a dynamic trap handler")
	a.mayEdge(pc)
	if after, ok := a.applyEffect(pc, s.d, 1, 0); ok {
		a.propagate(pc, next, s.deriv(after))
	}
}

func (a *analyzer) doCocreate(pc uint32, in *isa.Inst, s absState, next uint32) {
	// COCREATE itself is safe: a non-descriptor operand is a clean terminal
	// error and a descriptor that doesn't resolve never starts running. The
	// result is a tracked embryo only for a known constant descriptor;
	// anything else becomes an untracked word whose later transfer or free
	// (if any) falls out of the model there.
	after, ok := a.applyEffect(pc, s.d, 1, 1)
	if !ok {
		return
	}
	out := s.deriv(after)
	if after.exact() {
		out.vals = dropPush(s.vals, 1, 1)
		if v := valAt(s.vals, s.d.lo-1); v.isProcWord() {
			if T, ok := a.resolveDescQuiet(v.word); ok {
				if out.vals == nil {
					out.vals = materialize(nil, after.lo)
				}
				out.vals[len(out.vals)-1] = ctxVal(srcCreated, rs1(T))
			}
		}
	}
	a.propagate(pc, next, out)
}

func (a *analyzer) doFree(pc uint32, s absState, next uint32) {
	a.addSite(&a.freeSites, siteFree, 0, pc)
	if s.d.exact() && s.vals != nil && s.d.lo >= 1 {
		v := s.vals[len(s.vals)-1]
		if v.kind == vWord && (image.IsProc(v.word) || v.word == 0) {
			// ErrBadContext: a clean terminal error on every machine.
			return
		}
		if v.kind == vCtx && v.freeable() && !a.freedMay(v.regs, s.freed) {
			// Own-frame frees additionally require the retain discipline;
			// certFrees checks that against the final summaries.
			out := s.deriv(interval{s.d.lo - 1, s.d.lo - 1})
			out.freed = s.freed.union(v.regs)
			out.vals = dropPush(s.vals, 1, 0)
			a.propagate(pc, next, out)
			return
		}
	}
	// A raw address, a possibly live caller or transferrer frame, or a
	// frame of a region that may already be gone: FREE would tear down
	// recycled storage.
	a.untrackedFree(pc, s, next)
}
