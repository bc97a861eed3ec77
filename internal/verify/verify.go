// Package verify is the link-time bytecode verifier: a static analysis
// over the predecoded instruction stream of a linked program that decides
// admission.
//
// The engine (summary.go) is a worklist abstract interpreter computing,
// for every reachable pc, an evaluation-stack depth interval. Procedures
// are analyzed once, CFA2-style, against a canonical [0,0] entry context —
// the machine's enterProc always delivers the argument record into frame
// locals and clears the stack — and tabulated: each call site reads the
// callee's result-depth summary, so recursion converges and every call
// site sees its own return depth rather than a join over unrelated
// callers. A transfer or call whose destination is not a statically
// resolved procedure resumes with an unknown depth, and any reachable
// STRAP arms the trap path of every TRAPB, DIV and MOD.
//
// After the fixpoint, rejudge re-checks the definite stack faults the
// worklist deferred (joins move both interval ends, so such a judgment is
// only final against the final state) and the stack effect of TRAPBs no
// reachable STRAP arms.
//
// Diagnostics come in two grades. Error marks a pc where reaching it
// definitely fails or corrupts the machine — the program is rejected
// (Report.Admitted() == false). Warn marks a likely compiler or
// relocation bug the machine still executes (a jump into operand bytes,
// an access past a frame or the module's globals); the program is
// admitted. Every image runs the checked dispatch table, whose push and
// pop checks catch what the intervals cannot rule out.
package verify

import (
	"fmt"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// maxDepth is the evaluation-stack capacity the analysis bounds against.
const maxDepth = isa.EvalStackDepth

// interval is an abstract stack depth: every concrete depth reaching the
// pc lies in [lo, hi].
type interval struct{ lo, hi int }

// top is the unknown depth: anything the machine accepts.
var top = interval{0, maxDepth}

func (a interval) join(b interval) interval {
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

// region is one procedure's code range [entry, end) as the linker laid it
// out; end is the next inline header in the segment (or the segment end).
type region struct {
	entry, end uint32
	name       string
	inst       *image.Instance
	fsi        int
}

type diagKey struct {
	pc     uint32
	reason Reason
}

type analyzer struct {
	p     *image.Program
	code  []byte
	insts []isa.Inst
	data  map[mem.Addr]mem.Word

	regions     []region
	regionOf    []int32 // per pc: region index or -1
	entryRegion map[uint32]int
	instByCB    map[uint32]*image.Instance
	boundary    []bool // canonical instruction boundaries per region

	state   []interval
	reached []bool
	work    []uint32
	queued  []bool
	steps   int // worklist pops; DESIGN.md "Worst-case bound"

	// Per-region result summaries (join of RET depths).
	sum     []interval
	sumOK   []bool
	deps    [][]uint32 // call sites awaiting the summary
	waiting []bool     // per pc: registered in deps

	// armed is "a STRAP is reachable": from then on every TRAPB, DIV and
	// MOD may transfer to a handler.
	armed bool
	// defFlow records pcs whose fixed stack effect looked like a definite
	// under/overflow mid-fixpoint. Joins move both interval ends, so the
	// judgment is non-monotone: rejudge re-checks each site against the
	// final state and only then emits the Error.
	defFlow map[uint32][2]int // pc -> {pops, pushes}

	diags []Diag
	seen  map[diagKey]bool
}

// Program verifies a linked program and returns the structured report.
// It never fails hard: malformed images produce Error diagnostics, not
// panics, so a serving layer can always render the report.
func Program(p *image.Program) *Report {
	insts, _ := isa.Predecode(p.Code)
	return Predecoded(p, insts)
}

// Predecoded is Program over insts, p's code as isa.Predecode expanded
// it, so a load that predecodes for its machines verifies the same stream
// instead of decoding the code twice. The verifier only reads insts.
func Predecoded(p *image.Program, insts []isa.Inst) *Report {
	a := newAnalyzer(p, insts)
	a.run()
	a.rejudge()
	return &Report{Diags: a.diags, depth: a.state, reached: a.reached}
}

func (a *analyzer) buildRegions() {
	ncode := uint32(len(a.code))
	for _, inst := range a.p.Instances {
		a.instByCB[inst.CodeBase] = inst
		segEnd := ncode
		for _, other := range a.p.Instances {
			if other.CodeBase > inst.CodeBase && other.CodeBase < segEnd {
				segEnd = other.CodeBase
			}
		}
		for i := range inst.Module.Procs {
			entry := inst.ProcEntryPC(i)
			if entry >= ncode {
				continue
			}
			end := segEnd
			for j := range inst.Module.Procs {
				if h := inst.ProcHeaderAddr(j); h > entry && h < end {
					end = h
				}
			}
			a.regions = append(a.regions, region{
				entry: entry, end: end,
				name: inst.Module.Name + "." + inst.Module.Procs[i].Name,
				inst: inst, fsi: inst.FSI[i],
			})
		}
	}
	a.regionOf = make([]int32, len(a.code))
	for i := range a.regionOf {
		a.regionOf[i] = -1
	}
	for r, reg := range a.regions {
		a.entryRegion[reg.entry] = r
		for pc := reg.entry; pc < reg.end && pc < ncode; pc++ {
			a.regionOf[pc] = int32(r)
		}
	}
}

// buildBoundaries marks the canonical instruction boundaries: the pcs a
// linear decode from each procedure entry visits. Jumping anywhere else is
// legal for the machine (the predecoded table is dense) but almost always
// a compiler or relocation bug, so it gets a Warn.
func (a *analyzer) buildBoundaries() {
	a.boundary = make([]bool, len(a.code))
	for _, reg := range a.regions {
		for pc := reg.entry; pc < reg.end; {
			in := &a.insts[pc]
			if !in.Valid() {
				break
			}
			a.boundary[pc] = true
			pc += uint32(in.Size)
		}
	}
}

func newAnalyzer(p *image.Program, insts []isa.Inst) *analyzer {
	a := &analyzer{
		p:           p,
		code:        p.Code,
		insts:       insts,
		data:        make(map[mem.Addr]mem.Word, len(p.Data)),
		entryRegion: map[uint32]int{},
		instByCB:    map[uint32]*image.Instance{},
		defFlow:     map[uint32][2]int{},
		seen:        map[diagKey]bool{},
	}
	for _, dw := range p.Data {
		a.data[dw.Addr] = dw.Val
	}
	a.buildRegions()
	a.buildBoundaries()
	n, nr := len(a.code), len(a.regions)
	a.state = make([]interval, n)
	a.reached = make([]bool, n)
	a.queued = make([]bool, n)
	a.waiting = make([]bool, n)
	a.sum = make([]interval, nr)
	a.sumOK = make([]bool, nr)
	a.deps = make([][]uint32, nr)
	a.checkLinkage()

	// Roots: every linked procedure entry, at depth 0 — any of them can be
	// the target of a serving call, a coroutine creation or a trap handler
	// installation, and enterProc always clears the stack.
	for _, reg := range a.regions {
		a.joinInto(reg.entry, interval{0, 0})
	}
	// The program's start descriptor must itself resolve.
	if a.p.Entry != 0 {
		if !image.IsProc(a.p.Entry) {
			a.diag(0, LevelError, ReasonBadDescriptor,
				"entry context %04x is not a procedure descriptor", a.p.Entry)
		} else {
			a.resolveDescriptor(a.p.Entry, ReasonBadDescriptor, a.loud(0, "entry "))
		}
	}
	return a
}

func (a *analyzer) run() {
	for len(a.work) > 0 {
		pc := a.work[len(a.work)-1]
		a.work = a.work[:len(a.work)-1]
		a.queued[pc] = false
		a.steps++
		a.step(pc, a.state[pc])
	}
}

func (a *analyzer) enqueue(pc uint32) {
	if !a.queued[pc] {
		a.queued[pc] = true
		a.work = append(a.work, pc)
	}
}

// joinInto merges d into pc's state, queueing pc when it grew.
func (a *analyzer) joinInto(pc uint32, d interval) {
	if int(pc) >= len(a.code) {
		return
	}
	if !a.reached[pc] {
		a.reached[pc] = true
		a.state[pc] = d
		a.enqueue(pc)
		return
	}
	if j := a.state[pc].join(d); j != a.state[pc] {
		a.state[pc] = j
		a.enqueue(pc)
	}
}

// propagate flows d along an intra-procedural edge from → to (fall-through
// or jump), reporting a fall off the end of the code space.
func (a *analyzer) propagate(from, to uint32, d interval) {
	if int(to) >= len(a.code) {
		a.diag(from, LevelError, ReasonFallOffEnd,
			"execution runs past the %d-byte code space", len(a.code))
		return
	}
	a.joinInto(to, d)
}

func (a *analyzer) procName(pc uint32) string {
	if int(pc) < len(a.regionOf) {
		if r := a.regionOf[pc]; r >= 0 {
			return a.regions[r].name
		}
	}
	return a.p.ProcName(pc)
}

func (a *analyzer) diag(pc uint32, lvl Level, reason Reason, format string, args ...interface{}) {
	k := diagKey{pc, reason}
	if a.seen[k] {
		return
	}
	a.seen[k] = true
	a.diags = append(a.diags, Diag{
		PC: pc, Proc: a.procName(pc), Level: lvl, Reason: reason,
		Msg: fmt.Sprintf(format, args...),
	})
}

// failFn receives one broken link of a §5.1 walk.
type failFn func(reason Reason, format string, args ...interface{})

// loud reports a walk's failures as Errors at pc, prefixed with what.
func (a *analyzer) loud(pc uint32, what string) failFn {
	return func(reason Reason, format string, args ...interface{}) {
		a.diag(pc, LevelError, reason, what+format, args...)
	}
}

// resolveDescriptor statically walks the §5.1 indirection chain of a
// packed procedure descriptor: GFT entry → global frame → code base →
// entry vector → frame-size index.
func (a *analyzer) resolveDescriptor(desc mem.Word, reason Reason, fail failFn) (entry uint32, ok bool) {
	gfi, ev := image.UnpackProc(desc)
	gfte, present := a.data[image.GFTBase+mem.Addr(gfi)]
	if !present {
		fail(reason, "descriptor %04x: gfi %d has no GFT entry", desc, gfi)
		return 0, false
	}
	gf, bias := image.UnpackGFTEntry(gfte)
	lo, okLo := a.data[gf]
	hi, okHi := a.data[gf+1]
	if !okLo || !okHi {
		fail(reason, "descriptor %04x: global frame %04x holds no code base", desc, gf)
		return 0, false
	}
	cb := uint32(lo) | uint32(hi)<<16
	evIdx := ev + bias
	if inst := a.instByCB[cb]; inst != nil && evIdx >= len(inst.EVOffsets) {
		fail(reason, "descriptor %04x: entry %d past the %d-slot entry vector of %s",
			desc, evIdx, len(inst.EVOffsets), inst.Module.Name)
		return 0, false
	}
	return a.resolveEntry(cb, evIdx, reason, fail)
}

// resolveEntry reads entry-vector slot evIdx of the segment at cb the way
// the machine's LOCALCALL path does, validating every read.
func (a *analyzer) resolveEntry(cb uint32, evIdx int, reason Reason, fail failFn) (entry uint32, ok bool) {
	evAddr := int64(cb) + int64(2*evIdx)
	if evAddr+1 >= int64(len(a.code)) || evAddr < 0 {
		fail(reason, "entry-vector slot %d at %06x reads outside the code space", evIdx, evAddr)
		return 0, false
	}
	evOff := uint32(a.code[evAddr]) | uint32(a.code[evAddr+1])<<8
	fsiAddr := int64(cb) + int64(evOff)
	if fsiAddr >= int64(len(a.code)) {
		fail(reason, "entry %d: header at %06x lies outside the code space", evIdx, fsiAddr)
		return 0, false
	}
	fsi := int(a.code[fsiAddr])
	entry = uint32(fsiAddr) + 1
	if int64(entry) >= int64(len(a.code)) || !a.insts[entry].Valid() {
		fail(reason, "entry %d: first instruction at %06x does not decode", evIdx, entry)
		return 0, false
	}
	if fsi >= len(a.p.FrameSizes) {
		fail(ReasonBadFrameSize, "entry %d: frame class %d outside the %d-class table", evIdx, fsi, len(a.p.FrameSizes))
		return 0, false
	}
	return entry, true
}
