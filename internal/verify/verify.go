// Package verify is the link-time bytecode verifier: a static analysis
// over the predecoded instruction stream of a linked program, run as one
// engine with one fixpoint.
//
// Stage 1 — the summary engine (summary.go) — is a worklist abstract
// interpreter computing, for every reachable pc, an evaluation-stack depth
// interval plus an abstract value per stack slot and definitely-assigned
// local (values.go). Procedures are analyzed once, CFA2-style, against a
// canonical [0,0] entry context — the engine's enterProc always delivers
// the argument record into frame locals and clears the stack — and
// tabulated: each call site reads the callee's result-depth summary, so
// recursion converges and every call site sees its own return depth
// rather than a join over unrelated callers. Transfers get the same
// treatment: XFERO sites with statically known targets feed per-region
// resume pools (the depths a suspended frame can be resumed with),
// COCREATE results and retctx/myctx words carry provenance, and STRAP
// with a known handler descriptor turns TRAPB/DIV into calls against the
// handler's result summary.
//
// Imprecision stays local. A site the value model cannot follow (a raw
// store, an untracked FREE, a transfer or trap arm to an unknown context)
// withholds the certificate itself and marks the one family of facts it
// can invalidate as lost; the family's registered readers are requeued
// and read it as top from then on, inside the same fixpoint.
//
// Stage 2 — certificate derivation (certify.go) — re-checks the judgments
// that depend on the final fixpoint (own-frame frees, deferred definite
// stack faults, unarmed TRAPBs) and decides the stack-bounds certificate:
// whether every reachable instruction provably keeps the stack inside
// [0, isa.EvalStackDepth] and nothing reachable can corrupt the linkage
// the proof depends on. It also assembles the per-context report: entry
// kinds, resume-depth pools, result summaries and the reason codes
// explaining a withheld certificate.
//
// Diagnostics come in two grades. Error marks a pc where reaching it
// definitely fails or corrupts the machine — the program is rejected
// (Report.Admitted() == false). Warn marks what cannot be proven safe;
// the program is admitted, but any certificate-blocking Warn (Diag.Cert)
// withholds CertStackBounds.
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

func (a interval) exact() bool { return a.lo == a.hi }

// absState is the per-pc abstract state. The depth interval drives
// admission; the rest only ever sharpens or withholds the certificate.
type absState struct {
	d      interval
	stored uint64  // must-assigned local slots (definite assignment)
	ret    bool    // current frame retained on every path reaching pc
	freed  regSet  // regions a frame of which may have been freed
	frec   regSet  // allocation sites a record of which may have been freed
	vals   []value // stack values, bottom first; nil = untracked
	locs   []value // flow-sensitive local values; nil/short slots = untracked
}

func (s absState) join(o absState) absState {
	return absState{
		d:      s.d.join(o.d),
		stored: s.stored & o.stored,
		ret:    s.ret && o.ret,
		freed:  s.freed.union(o.freed),
		frec:   s.frec.union(o.frec),
		vals:   joinVals(s.vals, o.vals),
		locs:   joinLocs(s.locs, o.locs),
	}
}

// deriv carries every frame-local fact (assigned locals, retain mark,
// freed sets, local values) into a successor state with depth d and an
// untracked stack. Every intra-frame propagation builds on it, so adding
// a frame-local fact to absState means adding it here, once.
func (s absState) deriv(d interval) absState {
	return absState{d: d, stored: s.stored, ret: s.ret, freed: s.freed, frec: s.frec, locs: s.locs}
}

func (s absState) equal(o absState) bool {
	if s.d != o.d || s.stored != o.stored || s.ret != o.ret || s.freed != o.freed || s.frec != o.frec {
		return false
	}
	if (s.vals == nil) != (o.vals == nil) || len(s.vals) != len(o.vals) {
		return false
	}
	for i := range s.vals {
		if s.vals[i] != o.vals[i] {
			return false
		}
	}
	return locsEqual(s.locs, o.locs)
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

// Fact families a site can lose. A lost family reads as top at each of
// its registered readers, which lose() requeues once; nothing else about
// the fixpoint changes, so every other fact keeps its precision.
const (
	lostLocals uint8 = 1 << iota // local values; readers llSites
	lostXfer                     // resume pools and LRC provenance; readers xferSites, lrcSites
	lostFreed                    // freed frame and record sets; readers freeSites, xferSites
	lostTraps                    // the trap-handler set; readers trapSites, lrcSites
)

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

	lost uint8 // lost fact families

	state   []absState
	reached []bool
	work    []uint32
	queued  []bool

	// Per-region result summaries (join of RET states).
	sum      []interval // result-depth summary
	sumOK    []bool
	sumVals  [][]value  // result values (nil once arities disagree)
	sumValsN []bool     // sumVals meaningful (at least one RET folded)
	sumFreed []regSet   // regions the callee's subtree may free
	deps     [][]uint32 // call/desc-transfer sites awaiting the summary
	depSeen  map[uint64]bool
	maxHi    []int // per region: max hi over its reached pcs

	// Record allocation sites: each reachable AFB gets a stable site index
	// whose payload (the frame class's word count) bounds certified writes
	// through pointers carrying the site.
	recSiteOf   map[uint32]int
	sitePayload []int

	// Per-region resume pools: the depths (and freed masks) a frame of
	// the region can be resumed with at its XFERO suspension points.
	pool      []interval
	poolOK    []bool
	poolFreed []regSet
	xferSrc   []regSet   // regions with an XFERO site targeting this region
	xferSites [][]uint32 // XFERO pcs inside this region (requeued on pool growth)
	lrcSites  [][]uint32 // LRC pcs inside this region
	llSites   [][]uint32 // guarded local loads inside this region
	freeSites []uint32   // FREE/FFREE/STIND/WFB pcs (readers of the freed sets)
	siteSeen  map[uint64]bool

	// Trap-handler model: armed is "a STRAP arming some handler is
	// reachable"; handlers is the region set of statically known handler
	// descriptors.
	armed     bool
	handlers  regSet
	trapSites []uint32 // TRAPB/DIV/MOD pcs, requeued when the model grows
	// defFlow records pcs whose fixed stack effect looked like a definite
	// under/overflow mid-fixpoint. Joins move both interval ends, so the
	// judgment is non-monotone: certify re-checks each site against the
	// final state and only then emits the Error.
	defFlow map[uint32][2]int // pc -> {pops, pushes}

	callEntered []bool    // region can be entered by a static call or as a trap handler
	retainedAll []bool    // every reached RET of the region carries the retained mark
	retSeen     []bool    // region has a reached RET
	env         [][]value // per region, per local slot: join of stored values
	envInit     []uint64  // slots of env holding at least one stored value

	diags    []Diag
	seen     map[diagKey]bool
	certOK   bool
	calls    []CallEdge
	callSeen map[CallEdge]bool
}

// Program verifies a linked program and returns the structured report.
// It never fails hard: malformed images produce Error diagnostics, not
// panics, so a serving layer can always render the report. The worklist
// drains once, and once more only when the own-frame FREE check loses the
// freed-set family.
func Program(p *image.Program) *Report {
	a := newAnalyzer(p)
	a.run()
	if a.certFrees() {
		a.run()
	}
	a.certify()
	return a.report()
}

// lose marks fact family f lost and requeues its readers.
func (a *analyzer) lose(f uint8) {
	if a.lost&f != 0 {
		return
	}
	a.lost |= f
	wake := func(lists ...[]uint32) {
		for _, l := range lists {
			for _, pc := range l {
				a.enqueue(pc)
			}
		}
	}
	switch f {
	case lostLocals:
		wake(a.llSites...)
	case lostXfer:
		wake(a.xferSites...)
		wake(a.lrcSites...)
	case lostFreed:
		wake(a.xferSites...)
		wake(a.freeSites)
	case lostTraps:
		wake(a.lrcSites...)
		wake(a.trapSites)
	}
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

func newAnalyzer(p *image.Program) *analyzer {
	insts, _ := isa.Predecode(p.Code)
	a := &analyzer{
		p:           p,
		code:        p.Code,
		insts:       insts,
		data:        make(map[mem.Addr]mem.Word, len(p.Data)),
		entryRegion: map[uint32]int{},
		instByCB:    map[uint32]*image.Instance{},
		depSeen:     map[uint64]bool{},
		recSiteOf:   map[uint32]int{},
		siteSeen:    map[uint64]bool{},
		defFlow:     map[uint32][2]int{},
		seen:        map[diagKey]bool{},
		callSeen:    map[CallEdge]bool{},
		certOK:      true,
	}
	for _, dw := range p.Data {
		a.data[dw.Addr] = dw.Val
	}
	a.buildRegions()
	a.buildBoundaries()
	n, nr := len(a.code), len(a.regions)
	a.state = make([]absState, n)
	a.reached = make([]bool, n)
	a.queued = make([]bool, n)
	a.sum = make([]interval, nr)
	a.sumOK = make([]bool, nr)
	a.sumVals = make([][]value, nr)
	a.sumValsN = make([]bool, nr)
	a.sumFreed = make([]regSet, nr)
	a.deps = make([][]uint32, nr)
	a.maxHi = make([]int, nr)
	a.pool = make([]interval, nr)
	a.poolOK = make([]bool, nr)
	a.poolFreed = make([]regSet, nr)
	a.xferSrc = make([]regSet, nr)
	a.xferSites = make([][]uint32, nr)
	a.lrcSites = make([][]uint32, nr)
	a.llSites = make([][]uint32, nr)
	a.callEntered = make([]bool, nr)
	a.retainedAll = make([]bool, nr)
	a.retSeen = make([]bool, nr)
	a.env = make([][]value, nr)
	a.envInit = make([]uint64, nr)
	for i := range a.regions {
		a.maxHi[i] = -1
		a.retainedAll[i] = true
	}
	a.checkLinkage()

	// Roots: every linked procedure entry, at depth 0 — any of them can be
	// the target of a serving call, a coroutine creation or a trap handler
	// installation, and enterProc always clears the stack.
	for _, reg := range a.regions {
		a.joinInto(reg.entry, a.entryState(regSet{}))
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

// entryState is the canonical procedure entry context: empty stack, no
// definitely-assigned locals (arguments arrive as frame garbage as far as
// the value lattice is concerned), carrying the caller's freed set.
// Record pointers never cross a call (RET summaries sanitize them), so the
// freed-site set starts empty.
func (a *analyzer) entryState(freed regSet) absState {
	return absState{d: interval{0, 0}, freed: freed, vals: []value{}}
}

func (a *analyzer) run() {
	for len(a.work) > 0 {
		pc := a.work[len(a.work)-1]
		a.work = a.work[:len(a.work)-1]
		a.queued[pc] = false
		a.step(pc, a.state[pc])
	}
}

func (a *analyzer) enqueue(pc uint32) {
	if !a.queued[pc] {
		a.queued[pc] = true
		a.work = append(a.work, pc)
	}
}

// joinInto merges s into pc's state, queueing pc when it grew.
func (a *analyzer) joinInto(pc uint32, s absState) {
	if int(pc) >= len(a.code) {
		return
	}
	if !a.reached[pc] {
		a.reached[pc] = true
		a.state[pc] = s
		a.enqueue(pc)
		return
	}
	if j := a.state[pc].join(s); !j.equal(a.state[pc]) {
		a.state[pc] = j
		a.enqueue(pc)
	}
}

// propagate flows s along an intra-procedural edge from → to (fall-through
// or jump), reporting a fall off the end of the code space and flows that
// cross a procedure boundary.
func (a *analyzer) propagate(from, to uint32, s absState) {
	if int(to) >= len(a.code) {
		a.diag(from, LevelError, ReasonFallOffEnd,
			"execution runs past the %d-byte code space", len(a.code))
		return
	}
	if rf, rt := a.regionOf[from], a.regionOf[to]; rf != rt {
		a.diagCert(from, ReasonCrossProcFlow,
			"control flows from %s into %s without a call", a.regionName(rf), a.regionName(rt))
	}
	a.joinInto(to, s)
}

func (a *analyzer) regionName(r int32) string {
	if r < 0 {
		return "unowned code"
	}
	return a.regions[r].name
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

// diagCert emits a Warn that also withholds the stack-bounds certificate.
func (a *analyzer) diagCert(pc uint32, reason Reason, format string, args ...interface{}) {
	a.certOK = false
	k := diagKey{pc, reason}
	if a.seen[k] {
		return
	}
	a.seen[k] = true
	a.diags = append(a.diags, Diag{
		PC: pc, Proc: a.procName(pc), Level: LevelWarn, Reason: reason, Cert: true,
		Msg: fmt.Sprintf(format, args...),
	})
}

func (a *analyzer) edge(from, callee uint32, kind EdgeKind) {
	e := CallEdge{FromPC: from, Callee: callee, Kind: kind, May: kind == EdgeMay}
	if !a.callSeen[e] {
		a.callSeen[e] = true
		a.calls = append(a.calls, e)
	}
}

func (a *analyzer) mayEdge(pc uint32) { a.edge(pc, 0, EdgeMay) }

// markCallEntered records that region r can be entered by a static call
// or trap dispatch: its retctx may then name a frame suspended inside a
// call, which the resume-pool model must not cover.
func (a *analyzer) markCallEntered(r int) {
	if r < 0 || r >= len(a.callEntered) || a.callEntered[r] {
		return
	}
	a.callEntered[r] = true
	for _, pc := range a.lrcSites[r] {
		a.enqueue(pc)
	}
}

// failFn receives one broken link of a §5.1 walk.
type failFn func(reason Reason, format string, args ...interface{})

// quiet drops a walk's failures: the value analysis resolves COCREATE
// operands and XFERO/STRAP targets with it, where an unresolvable word
// merely degrades the value to untracked (the machine errors cleanly at
// runtime).
func quiet(Reason, string, ...interface{}) {}

// loud reports a walk's failures as Errors at pc, prefixed with what.
func (a *analyzer) loud(pc uint32, what string) failFn {
	return func(reason Reason, format string, args ...interface{}) {
		a.diag(pc, LevelError, reason, what+format, args...)
	}
}

// resolveDescriptor statically walks the §5.1 indirection chain of a
// packed procedure descriptor: GFT entry → global frame → code base →
// entry vector → frame-size index.
func (a *analyzer) resolveDescriptor(desc mem.Word, reason Reason, fail failFn) (entry uint32, fsi int, ok bool) {
	gfi, ev := image.UnpackProc(desc)
	gfte, present := a.data[image.GFTBase+mem.Addr(gfi)]
	if !present {
		fail(reason, "descriptor %04x: gfi %d has no GFT entry", desc, gfi)
		return 0, 0, false
	}
	gf, bias := image.UnpackGFTEntry(gfte)
	lo, okLo := a.data[gf]
	hi, okHi := a.data[gf+1]
	if !okLo || !okHi {
		fail(reason, "descriptor %04x: global frame %04x holds no code base", desc, gf)
		return 0, 0, false
	}
	cb := uint32(lo) | uint32(hi)<<16
	evIdx := ev + bias
	if inst := a.instByCB[cb]; inst != nil && evIdx >= len(inst.EVOffsets) {
		fail(reason, "descriptor %04x: entry %d past the %d-slot entry vector of %s",
			desc, evIdx, len(inst.EVOffsets), inst.Module.Name)
		return 0, 0, false
	}
	return a.resolveEntry(cb, evIdx, reason, fail)
}

// resolveEntry reads entry-vector slot evIdx of the segment at cb the way
// the machine's LOCALCALL path does, validating every read.
func (a *analyzer) resolveEntry(cb uint32, evIdx int, reason Reason, fail failFn) (entry uint32, fsi int, ok bool) {
	evAddr := int64(cb) + int64(2*evIdx)
	if evAddr+1 >= int64(len(a.code)) || evAddr < 0 {
		fail(reason, "entry-vector slot %d at %06x reads outside the code space", evIdx, evAddr)
		return 0, 0, false
	}
	evOff := uint32(a.code[evAddr]) | uint32(a.code[evAddr+1])<<8
	fsiAddr := int64(cb) + int64(evOff)
	if fsiAddr >= int64(len(a.code)) {
		fail(reason, "entry %d: header at %06x lies outside the code space", evIdx, fsiAddr)
		return 0, 0, false
	}
	fsi = int(a.code[fsiAddr])
	entry = uint32(fsiAddr) + 1
	if int64(entry) >= int64(len(a.code)) || !a.insts[entry].Valid() {
		fail(reason, "entry %d: first instruction at %06x does not decode", evIdx, entry)
		return 0, 0, false
	}
	if fsi >= len(a.p.FrameSizes) {
		fail(ReasonBadFrameSize, "entry %d: frame class %d outside the %d-class table", evIdx, fsi, len(a.p.FrameSizes))
		return 0, 0, false
	}
	return entry, fsi, true
}

// resolveDescQuiet resolves a descriptor word to a tracked region index
// without emitting any diagnostic.
func (a *analyzer) resolveDescQuiet(desc mem.Word) (r int, ok bool) {
	if !image.IsProc(desc) {
		return 0, false
	}
	entry, _, ok := a.resolveDescriptor(desc, ReasonBadDescriptor, quiet)
	if !ok {
		return 0, false
	}
	r, ok = a.entryRegion[entry]
	return r, ok && r < maxTrackedRegions
}

func (a *analyzer) report() *Report {
	r := &Report{
		Diags:  a.diags,
		Calls:  a.calls,
		Depths: make(map[uint32][2]int),
	}
	for pc := range a.code {
		if a.reached[pc] {
			r.Depths[uint32(pc)] = [2]int{a.state[pc].d.lo, a.state[pc].d.hi}
		}
	}
	for i, reg := range a.regions {
		pi := ProcInfo{Name: reg.name, Entry: reg.entry, MaxDepth: a.maxHi[i],
			ResultLo: -1, ResultHi: -1, ResumeLo: -1, ResumeHi: -1}
		if a.sumOK[i] {
			pi.ResultLo, pi.ResultHi = a.sum[i].lo, a.sum[i].hi
		}
		if i < maxTrackedRegions {
			pi.Called = a.callEntered[i] && !a.handlers.has(i)
			pi.TrapHandler = a.handlers.has(i)
			pi.XferTarget = !a.xferSrc[i].empty()
		} else {
			pi.Called = a.callEntered[i]
		}
		if a.poolOK[i] {
			pi.ResumeLo, pi.ResumeHi = a.pool[i].lo, a.pool[i].hi
		}
		pi.Retained = a.retainedAll[i] && a.retSeen[i]
		r.Procs = append(r.Procs, pi)
	}
	r.CertStackBounds = a.certOK && r.Admitted()
	return r
}
