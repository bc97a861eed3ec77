package verify

import (
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The per-procedure summary engine. step() is the abstract transfer
// function over depth intervals; procedures are entered once in the
// canonical [0,0] context and summarized at their RETs, and call sites
// consume the summaries. Summaries and the armed flag grow monotonically
// and requeue their readers, so the worklist converges to one fixpoint
// regardless of step order.

// applyEffect applies a fixed stack effect at pc. A definite fault ends
// the path and is judged by rejudge against the final state (the interval
// may still widen through callee summaries); the depths that survive a
// possible fault continue.
func (a *analyzer) applyEffect(pc uint32, d interval, pops, pushes int) (interval, bool) {
	if d.hi < pops {
		a.defFlow[pc] = [2]int{pops, pushes}
		return interval{}, false
	}
	after := interval{max(d.lo-pops, 0), d.hi - pops}
	if after.lo+pushes > maxDepth {
		a.defFlow[pc] = [2]int{pops, pushes}
		return interval{}, false
	}
	after.hi = min(after.hi, maxDepth-pushes)
	after.lo += pushes
	after.hi += pushes
	return after, true
}

func (a *analyzer) step(pc uint32, d interval) {
	in := &a.insts[pc]
	if !in.Valid() {
		reason := ReasonTruncated
		if isa.Op(a.code[pc]) >= isa.NumOps {
			reason = ReasonBadOpcode
		}
		a.diag(pc, LevelError, reason, "%v", in.Err(a.code, int(pc)))
		return
	}
	op := in.Op
	next := pc + uint32(in.Size)

	switch {
	case op == isa.HALT:
		return
	case op == isa.RET:
		a.doRet(pc, d)
		return
	case op.IsJump():
		a.doJump(pc, in, d, next)
		return
	case op.IsCall():
		a.doCall(pc, in, d, next)
		return
	case op == isa.XFERO:
		// The target is a runtime value: the transfer may resume this frame
		// with any depth.
		if _, ok := a.applyEffect(pc, d, 1, 0); ok {
			a.propagate(pc, next, top)
		}
		return
	case op == isa.TRAPB:
		a.doTrapB(pc, d, next)
		return
	case op == isa.STRAP:
		a.arm()
	}

	// Remaining opcodes have a fixed effect from the metadata table, plus
	// per-opcode operand sanity checks.
	info := isa.InfoOf(op)
	if info.Pops < 0 || info.Pushes < 0 {
		// Defensive: a variable effect not handled above.
		a.propagate(pc, next, top)
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
	after, ok := a.applyEffect(pc, d, int(info.Pops), int(info.Pushes))
	if !ok {
		return
	}
	if (op == isa.DIV || op == isa.MOD) && a.armed {
		// Division by zero can transfer to a handler; its results replace
		// the quotient.
		after = interval{after.lo - 1, maxDepth}
	}
	a.propagate(pc, next, after)
}

// arm records that a STRAP is reachable and requeues every reached trap
// site, whose successors now include a handler's return.
func (a *analyzer) arm() {
	if a.armed {
		return
	}
	a.armed = true
	for pc := range a.insts {
		if a.reached[pc] && trapSite(&a.insts[pc]) {
			a.enqueue(uint32(pc))
		}
	}
}

// trapSite reports whether in can transfer to an armed trap handler.
func trapSite(in *isa.Inst) bool {
	return in.Valid() && (in.Op == isa.TRAPB || in.Op == isa.DIV || in.Op == isa.MOD)
}

// checkLocal bounds local-variable accesses against the procedure's frame
// class. A load past the frame reads a neighbouring heap word; a store
// there corrupts the neighbour.
func (a *analyzer) checkLocal(pc uint32, in *isa.Inst) {
	r := a.regionOf[pc]
	if r < 0 || a.regions[r].fsi >= len(a.p.FrameSizes) {
		return
	}
	payload := a.p.FrameSizes[a.regions[r].fsi]
	if off := image.FrameHeaderWords + int(in.Arg); off >= payload {
		a.diag(pc, LevelWarn, ReasonLocalRange,
			"%s local %d: word %d of a %d-word frame (class %d)", in.Op, in.Arg, off, payload, a.regions[r].fsi)
	}
}

// checkGlobal bounds global accesses against the module's declared global
// count; a store past it lands in the neighbouring link vector or frame.
func (a *analyzer) checkGlobal(pc uint32, in *isa.Inst) {
	r := a.regionOf[pc]
	if r < 0 {
		return
	}
	if ng := a.regions[r].inst.Module.NumGlobals; int(in.Arg) >= ng {
		a.diag(pc, LevelWarn, ReasonGlobalRange,
			"%s global %d of %d in module %s", in.Op, in.Arg, ng, a.regions[r].inst.Module.Name)
	}
}

func (a *analyzer) doJump(pc uint32, in *isa.Inst, d interval, next uint32) {
	after, ok := a.applyEffect(pc, d, int(isa.InfoOf(in.Op).Pops), 0)
	if !ok {
		return
	}
	t := in.Target
	if int64(t) >= int64(len(a.code)) || !a.insts[t].Valid() {
		a.diag(pc, LevelError, ReasonBadJumpTarget,
			"%s to %06x: no instruction decodes there", in.Op, t)
	} else {
		if !a.boundary[t] {
			a.diag(pc, LevelWarn, ReasonJumpIntoOperands,
				"%s lands at %06x, inside another instruction's operand bytes", in.Op, t)
		}
		a.propagate(pc, t, after)
	}
	if in.Op != isa.JB && in.Op != isa.JW {
		a.propagate(pc, next, after) // conditional: may fall through
	}
}

// doRet folds the depth at a RET into its procedure's result summary and
// requeues every call site waiting on it. A RET outside any procedure
// returns to callers the analysis cannot name.
func (a *analyzer) doRet(pc uint32, d interval) {
	r := a.regionOf[pc]
	if r < 0 {
		return
	}
	if a.sumOK[r] {
		if d = a.sum[r].join(d); d == a.sum[r] {
			return
		}
	}
	a.sumOK[r], a.sum[r] = true, d
	for _, site := range a.deps[r] {
		a.enqueue(site)
	}
}

func (a *analyzer) doCall(pc uint32, in *isa.Inst, d interval, next uint32) {
	op := in.Op
	r := a.regionOf[pc]
	var entry uint32
	var ok bool

	switch {
	case op.IsExternalCall() || op.IsLocalCall():
		if r < 0 {
			// No instance to read the linkage of.
			a.propagate(pc, next, top)
			return
		}
		inst := a.regions[r].inst
		if op.IsLocalCall() {
			if ev := int(in.Arg); ev >= len(inst.EVOffsets) {
				a.diag(pc, LevelError, ReasonBadEntryVector,
					"%s entry %d past the %d-slot entry vector of %s", op, ev, len(inst.EVOffsets), inst.Module.Name)
				return
			}
			entry, ok = a.resolveEntry(inst.CodeBase, int(in.Arg), ReasonBadEntryVector, a.loud(pc, ""))
			break
		}
		slot := int(in.Arg)
		if !importSlotOK(inst, slot) {
			a.propagate(pc, next, top)
			return
		}
		ctx, present := a.data[inst.GF-1-mem.Addr(slot)]
		if !present || ctx == 0 {
			// The machine XFERs to NIL: the computation halts there.
			return
		}
		if !image.IsProc(ctx) {
			// The F3 fallback: a transfer to whatever the slot holds.
			a.propagate(pc, next, top)
			return
		}
		entry, ok = a.resolveDescriptor(ctx, ReasonBadDescriptor, a.loud(pc, ""))

	default: // DCALL / SDCALL
		if !in.CallOK {
			a.diag(pc, LevelError, ReasonBadCallHeader,
				"%s header at %06x lies outside the %d-byte code space", op, in.Target, len(a.code))
			return
		}
		entry = in.Target + isa.HeaderSkip
		if int64(entry) >= int64(len(a.code)) || !a.insts[entry].Valid() {
			a.diag(pc, LevelError, ReasonBadCallHeader,
				"%s entry %06x does not decode", op, entry)
			return
		}
		if fsi := int(in.FSI); fsi >= len(a.p.FrameSizes) {
			a.diag(pc, LevelError, ReasonBadFrameSize,
				"%s header class %d outside the %d-class frame-size table", op, fsi, len(a.p.FrameSizes))
			return
		}
		if cr, isEntry := a.entryRegion[entry]; isEntry && !headerGFOK(in, a.regions[cr].inst) {
			a.propagate(pc, next, top)
			return
		}
		ok = true
	}
	if ok {
		a.finishCall(pc, next, entry)
	}
}

// finishCall wires a resolved call site: the callee's result summary
// becomes the caller's depth after the call.
func (a *analyzer) finishCall(pc, next, entry uint32) {
	cr, isEntry := a.entryRegion[entry]
	if !isEntry {
		// The target decodes but is not a procedure entry the linker laid
		// out: its RETs cannot be attributed, so its result depth is
		// unknown.
		a.joinInto(entry, interval{0, 0})
		a.propagate(pc, next, top)
		return
	}
	if !a.waiting[pc] { // a call pc has one callee
		a.waiting[pc] = true
		a.deps[cr] = append(a.deps[cr], pc)
	}
	// Until the callee's summary forms it provably never returns, and the
	// fall-through stays unreached.
	if a.sumOK[cr] {
		a.propagate(pc, next, a.sum[cr])
	}
}

func (a *analyzer) doTrapB(pc uint32, d interval, next uint32) {
	if a.armed {
		// A handler's RETURN restores the trapper's operands beneath its
		// results: at least d.lo words, at most a full stack.
		a.propagate(pc, next, interval{d.lo, maxDepth})
		return
	}
	// Unarmed: the Go hook pushes the unhandled marker. A definite
	// overflow here is reported by rejudge only if no reachable STRAP ever
	// arms a handler.
	if d.lo+1 <= maxDepth {
		a.propagate(pc, next, interval{d.lo + 1, min(d.hi+1, maxDepth)})
	}
}

// rejudge re-checks, against the final fixpoint, the definite stack
// faults the worklist deferred, and the stack effect of TRAPBs when no
// reachable STRAP arms a handler.
func (a *analyzer) rejudge() {
	for pc := 0; pc < len(a.code); pc++ {
		if !a.reached[pc] || !a.insts[pc].Valid() {
			continue
		}
		d, op := a.state[pc], a.insts[pc].Op
		if pp, ok := a.defFlow[uint32(pc)]; ok {
			pops, pushes := pp[0], pp[1]
			if d.hi < pops {
				a.diag(uint32(pc), LevelError, ReasonStackUnderflow,
					"%s pops %d with at most %d on the stack", op, pops, d.hi)
			} else if lo := max(d.lo-pops, 0); lo+pushes > maxDepth {
				a.diag(uint32(pc), LevelError, ReasonStackOverflow,
					"%s pushes to depth %d past the %d-word stack", op, lo+pushes, maxDepth)
			}
		}
		if op == isa.TRAPB && !a.armed && d.lo+1 > maxDepth {
			a.diag(uint32(pc), LevelError, ReasonStackOverflow,
				"%s pushes to depth %d past the %d-word stack", op, d.lo+1, maxDepth)
		}
	}
}
