package verify_test

import (
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/verify"
	"repro/internal/workload"
)

func procInfo(r *verify.Report, name string) (verify.ProcInfo, bool) {
	for _, p := range r.Procs {
		if p.Name == name {
			return p, true
		}
	}
	return verify.ProcInfo{}, false
}

// findOp walks the predecoded entry procedure and returns the pc of the
// n-th occurrence of op.
func findOp(t *testing.T, prog *image.Program, op isa.Op, n int) uint32 {
	t.Helper()
	insts, _ := isa.Predecode(prog.Code)
	pc := prog.Instances[0].ProcEntryPC(0)
	for pc < uint32(len(insts)) && insts[pc].Valid() {
		if insts[pc].Op == op {
			if n == 0 {
				return pc
			}
			n--
		}
		pc += uint32(insts[pc].Size)
	}
	t.Fatalf("opcode %s (occurrence %d) not found from entry", op, n)
	return 0
}

// A coroutine pair — create, bidirectional transfers, free — must now earn
// the stack-bounds certificate: the resume pools pin every cross-depth.
func TestCoroutineCertified(t *testing.T) {
	w := &workload.Program{
		Name: "co-cert",
		Sources: map[string]string{"com": `
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
		Module: "com", Proc: "main",
	}
	for _, early := range []bool{false, true} {
		r := verify.Program(buildWorkload(t, w, early))
		if !r.Admitted() {
			t.Fatalf("early=%v: rejected:\n%s", early, r)
		}
		if !r.CertStackBounds {
			t.Fatalf("early=%v: coroutine program denied certificate:\n%s", early, r)
		}
		p, ok := procInfo(r, "com.prod")
		if !ok {
			t.Fatalf("early=%v: no com.prod in report", early)
		}
		if !p.XferTarget {
			t.Errorf("early=%v: com.prod not marked as a transfer target", early)
		}
		if p.ResumeLo < 0 || p.ResumeHi < p.ResumeLo {
			t.Errorf("early=%v: com.prod resume pool [%d,%d] not populated", early, p.ResumeLo, p.ResumeHi)
		}
		var sawXfer bool
		for _, e := range r.Calls {
			if e.Kind == verify.EdgeXfer {
				sawXfer = true
			}
			if e.Kind == verify.EdgeMay {
				t.Errorf("early=%v: unexpected may-edge at pc %06x", early, e.FromPC)
			}
		}
		if !sawXfer {
			t.Errorf("early=%v: no EdgeXfer in call graph", early)
		}
	}
}

// A program that arms a trap handler and takes both explicit and
// divide-by-zero traps is certifiable: the handler's result arity bounds
// every restore depth.
func TestTrapHandlerCertified(t *testing.T) {
	w := &workload.Program{
		Name: "trap-cert",
		Sources: map[string]string{"trapm": `
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
		Module: "trapm", Proc: "main",
	}
	for _, early := range []bool{false, true} {
		r := verify.Program(buildWorkload(t, w, early))
		if !r.Admitted() {
			t.Fatalf("early=%v: rejected:\n%s", early, r)
		}
		if !r.CertStackBounds {
			t.Fatalf("early=%v: trap program denied certificate:\n%s", early, r)
		}
		p, ok := procInfo(r, "trapm.th")
		if !ok {
			t.Fatalf("early=%v: no trapm.th in report", early)
		}
		if !p.TrapHandler {
			t.Errorf("early=%v: trapm.th not marked as a trap handler", early)
		}
		var sawTrapEdge bool
		for _, e := range r.Calls {
			if e.Kind == verify.EdgeTrap {
				sawTrapEdge = true
			}
		}
		if !sawTrapEdge {
			t.Errorf("early=%v: no EdgeTrap in call graph", early)
		}
	}
}

// A keeper that retains its frame and hands its context to the caller, who
// frees it later, is certifiable: the summary proves every return path of
// the callee is retained, so the FREE targets a live, reclaimable frame.
func TestRetainedKeeperCertified(t *testing.T) {
	w := &workload.Program{
		Name: "keep-cert",
		Sources: map[string]string{"keep": `
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
		Module: "keep", Proc: "main",
	}
	for _, early := range []bool{false, true} {
		r := verify.Program(buildWorkload(t, w, early))
		if !r.Admitted() {
			t.Fatalf("early=%v: rejected:\n%s", early, r)
		}
		if !r.CertStackBounds {
			t.Fatalf("early=%v: retained keeper denied certificate:\n%s", early, r)
		}
		p, ok := procInfo(r, "keep.keeper")
		if !ok {
			t.Fatalf("early=%v: no keep.keeper in report", early)
		}
		if !p.Retained {
			t.Errorf("early=%v: keep.keeper not marked retained", early)
		}
	}
}

// Dropping the retain() makes the same shape unsound — the caller would
// free an already-reclaimed frame — so the free must cost the certificate
// with the unsafe-free reason, while the program stays admitted.
func TestUnretainedKeeperUncertified(t *testing.T) {
	w := &workload.Program{
		Name: "keep-bad",
		Sources: map[string]string{"keep": `
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
		Module: "keep", Proc: "main",
	}
	r := verify.Program(buildWorkload(t, w, false))
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if r.CertStackBounds {
		t.Fatalf("unretained keeper free wrongly certified:\n%s", r)
	}
	if !hasReason(r.Diags, verify.ReasonUnsafeFree) {
		t.Errorf("missing %s diagnostic:\n%s", verify.ReasonUnsafeFree, r)
	}
}

// A statically-resolved XFERO to a procedure descriptor behaves as a call
// (§3): the target's returns resume the transferrer with its results, and
// the summary engine certifies the chain.
func TestXferDescriptorChainCertified(t *testing.T) {
	var a image.Asm
	a.EmitLoadLocalDesc(1)
	a.Emit(isa.XFERO)
	a.Emit(isa.POP)
	a.Emit(isa.HALT)
	var b image.Asm
	b.Emit(isa.LI3)
	b.Emit(isa.RET)
	m := &image.Module{Name: "x", Procs: []*image.Proc{
		{Name: "main", Body: a.Fragment()},
		{Name: "t", NumResults: 1, Body: b.Fragment()},
	}}
	prog := linkOne(t, m, "main")
	r := verify.Program(prog)
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if !r.CertStackBounds {
		t.Fatalf("descriptor XFERO chain denied certificate:\n%s", r)
	}
	xferPC := findOp(t, prog, isa.XFERO, 0)
	var sawEdge bool
	for _, e := range r.Calls {
		if e.FromPC == xferPC {
			if e.Kind != verify.EdgeXfer {
				t.Errorf("edge at XFERO pc has kind %s, want %s", e.Kind, verify.EdgeXfer)
			}
			sawEdge = true
		}
	}
	if !sawEdge {
		t.Errorf("no call-graph edge at the XFERO pc %06x:\n%s", xferPC, r)
	}
}

// coMismatch builds a coroutine pair whose two resume depths differ: the
// producer is started empty (cross-depth 0) but later resumed with two
// carried words, so its post-transfer POP may underflow.
func TestResumeDepthMismatchUncertified(t *testing.T) {
	var a image.Asm // main
	a.EmitLoadLocalDesc(1)
	a.Emit(isa.COCREATE)
	a.Emit(isa.SL0)
	a.Emit(isa.LL0)
	a.Emit(isa.XFERO) // start embryo, cross-depth 0
	a.Emit(isa.LL0)
	a.Emit(isa.XFERO) // resume at depth 3: cross-depth 2
	a.Emit(isa.HALT)
	var b image.Asm // prod
	b.Emit(isa.LRC)
	b.Emit(isa.SL0)
	b.Emit(isa.LI5)
	b.Emit(isa.LI5)
	b.Emit(isa.LL0)
	b.Emit(isa.XFERO) // transfer two words back, cross-depth 2
	b.Emit(isa.POP)   // resume depth is [0,2]: may underflow
	b.Emit(isa.HALT)
	m := &image.Module{Name: "mm", Procs: []*image.Proc{
		{Name: "main", NumLocals: 1, Body: a.Fragment()},
		{Name: "prod", NumLocals: 4, Body: b.Fragment()},
	}}
	r := verify.Program(linkOne(t, m, "main"))
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if r.CertStackBounds {
		t.Fatalf("mismatched resume depths wrongly certified:\n%s", r)
	}
	if !hasReason(r.Diags, verify.ReasonMaybeUnderflow) {
		t.Errorf("missing %s diagnostic:\n%s", verify.ReasonMaybeUnderflow, r)
	}
}

// A transfer that carries twelve words into a frame that then pushes two
// more crosses the 13-word line: admitted (the checked machine catches it)
// but uncertified with maybe-overflow.
func TestXferDeepCarryUncertified(t *testing.T) {
	var a image.Asm // main
	a.EmitLoadLocalDesc(1)
	a.Emit(isa.COCREATE)
	a.Emit(isa.SL0)
	a.Emit(isa.LL0)
	a.Emit(isa.XFERO) // start embryo, cross-depth 0
	for i := 0; i < 12; i++ {
		a.Emit(isa.LI1)
	}
	a.Emit(isa.LL0)
	a.Emit(isa.XFERO) // resume with twelve carried words
	a.Emit(isa.HALT)
	var b image.Asm // prod
	b.Emit(isa.LRC)
	b.Emit(isa.SL0)
	b.Emit(isa.LL0)
	b.Emit(isa.XFERO) // hand control back, cross-depth 0
	b.Emit(isa.LI1)   // resume depth is [0,12]: two pushes may overflow
	b.Emit(isa.LI1)
	b.Emit(isa.HALT)
	m := &image.Module{Name: "md", Procs: []*image.Proc{
		{Name: "main", NumLocals: 1, Body: a.Fragment()},
		{Name: "prod", NumLocals: 12, Body: b.Fragment()},
	}}
	r := verify.Program(linkOne(t, m, "main"))
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if r.CertStackBounds {
		t.Fatalf("deep-carry transfer wrongly certified:\n%s", r)
	}
	if !hasReason(r.Diags, verify.ReasonMaybeOverflow) {
		t.Errorf("missing %s diagnostic:\n%s", verify.ReasonMaybeOverflow, r)
	}
}

// A re-entrant handler that traps again and returns many results can push
// a deep trapper past the stack on restore: admitted, uncertified with
// maybe-overflow, and the trap edges are typed EdgeTrap.
func TestTrapRestoreOverflowUncertified(t *testing.T) {
	var a image.Asm // main
	a.EmitLoadLocalDesc(1)
	a.Emit(isa.STRAP)
	a.Emit(isa.LI1)
	a.Emit(isa.LI1)
	a.Emit(isa.TRAPB, 5) // restore depth 2 + [11,13] crosses 13
	a.Emit(isa.HALT)
	var b image.Asm // handler: traps again, returns eleven words
	b.Emit(isa.TRAPB, 9)
	for i := 0; i < 10; i++ {
		b.Emit(isa.LI1)
	}
	b.Emit(isa.RET)
	m := &image.Module{Name: "rt", Procs: []*image.Proc{
		{Name: "main", Body: a.Fragment()},
		{Name: "handler", NumArgs: 1, NumLocals: 1, NumResults: 11, Body: b.Fragment()},
	}}
	prog := linkOne(t, m, "main")
	r := verify.Program(prog)
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if r.CertStackBounds {
		t.Fatalf("re-entrant trap restore wrongly certified:\n%s", r)
	}
	if !hasReason(r.Diags, verify.ReasonMaybeOverflow) {
		t.Errorf("missing %s diagnostic:\n%s", verify.ReasonMaybeOverflow, r)
	}
	p, ok := procInfo(r, "rt.handler")
	if !ok {
		t.Fatalf("no rt.handler in report")
	}
	if !p.TrapHandler {
		t.Errorf("rt.handler not marked as a trap handler")
	}
	trapPC := findOp(t, prog, isa.TRAPB, 0)
	// The armed TRAPB keeps its EdgeTrap and grows no EdgeCall.
	var sawTrapEdge bool
	for _, e := range r.Calls {
		if e.FromPC == trapPC {
			if e.Kind != verify.EdgeTrap {
				t.Errorf("edge at armed TRAPB has kind %s, want %s", e.Kind, verify.EdgeTrap)
			}
			sawTrapEdge = true
		}
	}
	if !sawTrapEdge {
		t.Errorf("no EdgeTrap at armed TRAPB pc %06x:\n%s", trapPC, r)
	}
}

// Recursion whose every level returns one more word than the last grows
// the result stack without bound: the summary widens to the stack limit
// and the program is admitted but uncertified with maybe-overflow.
func TestNetPushRecursionUncertified(t *testing.T) {
	var a image.Asm // main
	a.Emit(isa.LI3)
	a.EmitCallLocal(1)
	a.Emit(isa.HALT)
	var b image.Asm // r(n): n==0 -> 1 word; else r(n-1) plus one more
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
	m := &image.Module{Name: "np", Procs: []*image.Proc{
		{Name: "main", Body: a.Fragment()},
		{Name: "r", NumArgs: 1, NumLocals: 1, Body: b.Fragment()},
	}}
	r := verify.Program(linkOne(t, m, "main"))
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if r.CertStackBounds {
		t.Fatalf("net-push recursion wrongly certified:\n%s", r)
	}
	if !hasReason(r.Diags, verify.ReasonMaybeOverflow) {
		t.Errorf("missing %s diagnostic:\n%s", verify.ReasonMaybeOverflow, r)
	}
	if got := r.PrimaryCertReason(); got != string(verify.ReasonMaybeOverflow) {
		t.Errorf("PrimaryCertReason = %q, want %q", got, verify.ReasonMaybeOverflow)
	}
	reasons := r.CertReasons()
	if len(reasons) != 1 || reasons[0] != string(verify.ReasonMaybeOverflow) {
		t.Errorf("CertReasons = %v, want exactly [%s]", reasons, verify.ReasonMaybeOverflow)
	}
}

// An unarmed TRAPB contributes no call-graph edge, and a resolved local
// call next to it has an EdgeCall and no may-edge. Regression for the
// may-edge dedupe.
func TestUnarmedTrapbEdges(t *testing.T) {
	var a image.Asm // main
	a.Emit(isa.LI1)
	a.Emit(isa.TRAPB, 3) // unarmed: terminal or a marker push, never a transfer
	a.Emit(isa.POP)
	a.Emit(isa.POP)
	a.EmitCallLocal(1)
	a.Emit(isa.POP)
	a.Emit(isa.HALT)
	var b image.Asm // q
	b.Emit(isa.LI1)
	b.Emit(isa.RET)
	m := &image.Module{Name: "uf", Procs: []*image.Proc{
		{Name: "main", Body: a.Fragment()},
		{Name: "q", NumResults: 1, Body: b.Fragment()},
	}}
	prog := linkOne(t, m, "main")
	r := verify.Program(prog)
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if !r.CertStackBounds {
		t.Fatalf("unarmed TRAPB cost the certificate:\n%s", r)
	}
	trapPC := findOp(t, prog, isa.TRAPB, 0)
	callPC := findOp(t, prog, isa.LFC1, 0) // the linker picks the fast form for slot 1
	sawCall := false
	for _, e := range r.Calls {
		if e.FromPC == trapPC {
			t.Errorf("unarmed TRAPB at %06x grew a call-graph edge (kind %s)", trapPC, e.Kind)
		}
		if e.FromPC == callPC {
			if e.Kind != verify.EdgeCall {
				t.Errorf("local call at %06x has kind %s, want %s", callPC, e.Kind, verify.EdgeCall)
			}
			sawCall = true
		}
	}
	if !sawCall {
		t.Errorf("resolved local call at %06x has no %s edge:\n%s", callPC, verify.EdgeCall, r)
	}
}
