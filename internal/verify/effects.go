package verify

import (
	"repro/internal/image"
	"repro/internal/isa"
)

// Stage 3 of the verifier: the heap-effects analysis. It runs once over
// the final stage-1 fixpoint and computes, per procedure and for the whole
// program, a write-set summary: which storage classes the code can write
// during a run. The classes come from the per-opcode heap-effect column
// (isa.Info.Heap); placement — whose storage a write lands in — comes from
// the operand checks the summary engine already performed:
//
//   - Frame-arena traffic (call frames, AV links, records, saved state)
//     is storage the run itself allocates and the dirty tracking already
//     accounts for. It never blocks a certificate.
//   - In-range SGB writes module global words: state the boot image owns.
//     The run escapes into the next session unless Reset repairs it, so
//     the write blocks CertHeapEffects (ReasonHeapEscape) — but its
//     footprint is statically bounded by the module's global count.
//   - Anything the analysis cannot place — a store or free the fixpoint
//     could not track at that site, an out-of-range local or global
//     index, a transfer to an unknown target — makes the write set
//     Unknown (ReasonHeapUnknownTarget): every bound is vacuous and Reset
//     must assume the worst. A site stage 1 did track stays placed even
//     when another site lost a fact family, because every loss site is
//     itself Unknown, a may-edge, or an irregular call (also Unknown).
//
// Per-procedure sets then close transitively over the call graph: a
// procedure writes whatever its callees, pinned transfer targets and
// armed trap handlers write on its behalf; a may-edge makes the caller
// Unknown. The program-level set is the union over every linked procedure
// (any entry can serve a request) plus reachable unowned code.
func (a *analyzer) effects() {
	nr := len(a.regions)
	a.writes = make([]WriteSet, nr)
	a.progWrites = WriteSet{}

	for pc := 0; pc < len(a.code); pc++ {
		if !a.reached[pc] || !a.insts[pc].Valid() {
			continue
		}
		w := a.classify(uint32(pc))
		if r := a.regionOf[pc]; r >= 0 {
			a.writes[r] = a.writes[r].union(w)
		} else {
			a.progWrites = a.progWrites.union(w)
		}
	}

	// May-edges poison their callers; pinned edges import the callee's set.
	// Iterate to a fixpoint — sets only grow, so it terminates.
	for _, e := range a.calls {
		if e.May {
			a.diagHeap(e.FromPC, ReasonHeapUnknownTarget,
				"transfer target unknown; the callee's writes cannot be bounded")
		}
	}
	for changed := true; changed; {
		changed = false
		for _, e := range a.calls {
			r := int32(-1)
			if int(e.FromPC) < len(a.regionOf) {
				r = a.regionOf[e.FromPC]
			}
			var w WriteSet
			if e.May {
				w = WriteSet{Unknown: true}
			} else if cr, ok := a.entryRegion[e.Callee]; ok {
				w = a.writes[cr]
			}
			if r >= 0 {
				if u := a.writes[r].union(w); u != a.writes[r] {
					a.writes[r] = u
					changed = true
				}
			} else if u := a.progWrites.union(w); u != a.progWrites {
				a.progWrites = u
				changed = true
			}
		}
	}

	for r := range a.writes {
		a.progWrites = a.progWrites.union(a.writes[r])
	}
}

// classify places one reachable instruction's writes, emitting the
// heap-certificate diagnostics for escaping or unplaceable ones.
func (a *analyzer) classify(pc uint32) WriteSet {
	in := &a.insts[pc]
	op := in.Op
	switch isa.InfoOf(op).Heap {
	case isa.HeapNone, isa.HeapRead:
		return WriteSet{}

	case isa.HeapAlloc:
		// Calls, COCREATE and AFB allocate frame-arena storage and write
		// its linkage: run-owned by construction.
		return WriteSet{Frames: true}
	}

	// HeapWrite: placement depends on the opcode's addressing.
	switch {
	case (op >= isa.SL0 && op <= isa.SL7) || op == isa.SLB:
		r := a.regionOf[pc]
		if r >= 0 && a.regions[r].fsi < len(a.p.FrameSizes) &&
			image.FrameHeaderWords+int(in.Arg) < a.p.FrameSizes[a.regions[r].fsi] {
			return WriteSet{Frames: true}
		}
		a.diagHeap(pc, ReasonHeapUnknownTarget,
			"%s local %d lands outside the frame; the write cannot be placed", op, in.Arg)
		return WriteSet{Unknown: true}

	case op == isa.SGB:
		r := a.regionOf[pc]
		if r >= 0 && int(in.Arg) < a.regions[r].inst.Module.NumGlobals {
			a.diagHeap(pc, ReasonHeapEscape,
				"SGB writes global %d of module %s: boot-image state the run does not own",
				in.Arg, a.regions[r].inst.Module.Name)
			return WriteSet{Globals: true}
		}
		a.diagHeap(pc, ReasonHeapUnknownTarget,
			"SGB global %d lands outside the module's globals; the write cannot be placed", in.Arg)
		return WriteSet{Unknown: true}

	case op == isa.STIND || op == isa.WFB:
		if !a.seen[diagKey{pc, ReasonHeapStore}] {
			// The fixpoint tracked this store: a record pointer with its
			// offset under every possible site's payload, so the write
			// stays inside run-allocated records.
			return WriteSet{Records: true}
		}
		a.diagHeap(pc, ReasonHeapUnknownTarget,
			"%s stores through a pointer the analysis cannot place", op)
		return WriteSet{Unknown: true}

	case op == isa.FFREE || op == isa.FREE:
		if !a.seen[diagKey{pc, ReasonUnsafeFree}] {
			// Tracked frees return run-allocated storage to the arena's
			// free lists: arena linkage writes only.
			return WriteSet{Frames: true}
		}
		a.diagHeap(pc, ReasonHeapUnknownTarget,
			"%s releases storage the analysis cannot place", op)
		return WriteSet{Unknown: true}

	default:
		// RET, XFERO, RETAIN, TRAPB: frame linkage and saved state.
		return WriteSet{Frames: true}
	}
}
