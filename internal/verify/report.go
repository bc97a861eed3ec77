package verify

import (
	"fmt"
	"sort"
	"strings"
)

// Level grades a diagnostic.
type Level uint8

// Diagnostic levels. An Error marks a pc where execution, if it reaches
// the pc, definitely fails or definitely corrupts machine state — the
// verifier rejects the program. A Warn marks something the verifier cannot
// prove safe (a possible stack fault, a dynamic transfer it cannot trace);
// the program is still admitted, but a cert-blocking Warn denies the
// stack-bounds certificate.
const (
	LevelWarn Level = iota
	LevelError
)

// String names the level.
func (l Level) String() string {
	if l == LevelError {
		return "error"
	}
	return "warn"
}

// Reason is a stable machine-readable code for a diagnostic.
type Reason string

// Reason codes.
const (
	// ReasonBadOpcode: a reachable pc holds an undefined opcode byte.
	ReasonBadOpcode Reason = "bad-opcode"
	// ReasonTruncated: a reachable instruction's operand bytes run past
	// the end of the code space.
	ReasonTruncated Reason = "truncated"
	// ReasonFallOffEnd: execution can fall past the last code byte.
	ReasonFallOffEnd Reason = "fall-off-end"
	// ReasonBadJumpTarget: a jump's target is outside the code space or
	// lands on a byte where no instruction decodes.
	ReasonBadJumpTarget Reason = "bad-jump-target"
	// ReasonJumpIntoOperands: a jump target decodes, but is not on the
	// instruction boundary stream of its procedure — it lands inside
	// another instruction's operand bytes and executes a shadow stream.
	ReasonJumpIntoOperands Reason = "jump-into-operands"
	// ReasonStackUnderflow / ReasonStackOverflow: the instruction's stack
	// effect fails on every path that reaches it.
	ReasonStackUnderflow Reason = "stack-underflow"
	ReasonStackOverflow  Reason = "stack-overflow"
	// ReasonMaybeUnderflow / ReasonMaybeOverflow: the effect fails on some
	// abstract path; the verifier cannot certify the stack bounds.
	ReasonMaybeUnderflow Reason = "maybe-underflow"
	ReasonMaybeOverflow  Reason = "maybe-overflow"
	// ReasonBadDescriptor: a procedure descriptor does not resolve —
	// its gfi has no GFT entry, or its entry index points past the entry
	// vector of the instance it names.
	ReasonBadDescriptor Reason = "bad-descriptor"
	// ReasonBadEntryVector: a local call's entry-vector slot reads outside
	// the code space or yields an entry that does not decode.
	ReasonBadEntryVector Reason = "bad-entry-vector"
	// ReasonBadCallHeader: a direct call's inline header lies outside the
	// code space, or the entry behind it does not decode.
	ReasonBadCallHeader Reason = "bad-call-header"
	// ReasonBadFrameSize: a frame-size index is not a class of the
	// program's frame-size table.
	ReasonBadFrameSize Reason = "bad-frame-size"
	// ReasonGlobalRange: a global access indexes past the module's
	// globals (a store there corrupts the neighbouring link vector).
	ReasonGlobalRange Reason = "global-out-of-range"
	// ReasonLocalRange: a local access indexes past the procedure's frame
	// class (a store there corrupts the neighbouring heap block).
	ReasonLocalRange Reason = "local-out-of-range"
	// ReasonArgOverrun: a call site can carry more stack words than the
	// callee's frame class holds below its size.
	ReasonArgOverrun Reason = "arg-overrun"
	// ReasonDynamicTransfer: a reachable XFERO or STRAP whose target the
	// summary engine could not pin to a tracked context — the transfer is a
	// may-edge, so the certificate is withheld. (COCREATE with a constant
	// descriptor, transfers between tracked coroutines and STRAP of a known
	// handler no longer raise this; they are certified via resume pools and
	// handler summaries.)
	ReasonDynamicTransfer Reason = "dynamic-transfer"
	// ReasonUnsafeFree: a reachable FREE or FFREE of a context the engine
	// cannot prove dead-safe — an unknown word, a possibly live caller or
	// transferrer frame, a possible double free, or a frame whose procedure
	// does not retain on every return.
	ReasonUnsafeFree Reason = "unsafe-free"
	// ReasonHeapStore: a reachable STIND or WFB — a raw store that can
	// rewrite frame words, saved pcs or table linkage, invalidating every
	// static fact downstream.
	ReasonHeapStore Reason = "heap-store"
	// ReasonUnresolvedLink: an external call's link-vector slot is not a
	// statically known procedure descriptor.
	ReasonUnresolvedLink Reason = "unresolved-link"
	// ReasonCrossProcFlow: a jump or fall-through crosses a procedure
	// boundary, so return depths cannot be attributed to one procedure.
	ReasonCrossProcFlow Reason = "cross-proc-flow"
	// ReasonIrregularCall: a call target is not a procedure entry the
	// linker laid out, so its result depth is unknown.
	ReasonIrregularCall Reason = "irregular-call"
	// ReasonLinkage: a linkage word the machine reads — an entry-vector
	// slot, a procedure's frame-class byte, a global frame's code base, a
	// GFT slot, or the global frame inline in a direct-call header —
	// disagrees with the linker's instance metadata. An Error for the
	// first four; a certificate-blocking Warn for a direct-call header.
	ReasonLinkage Reason = "linkage-mismatch"
	// ReasonHeapEscape: a write provably lands outside run-allocated
	// storage (module globals, the boot image): the run mutates state that
	// survives into the next session unless Reset restores it. Blocks the
	// heap-effects certificate only.
	ReasonHeapEscape Reason = "heap-escape"
	// ReasonHeapUnknownTarget: a write whose target the effects analysis
	// cannot place (an untracked pointer store, an out-of-range local or
	// global index): the write set is unbounded. Blocks the heap-effects
	// certificate only.
	ReasonHeapUnknownTarget Reason = "heap-unknown-target"
)

// Diag is one per-pc diagnostic.
type Diag struct {
	PC     uint32
	Proc   string // "Module.proc" owning the pc, when known
	Level  Level
	Reason Reason
	Msg    string
	// Cert marks a Warn that withholds the stack-bounds certificate: the
	// reason codes of these diagnostics explain an Admitted-but-uncertified
	// verdict.
	Cert bool
	// Heap marks a Warn that withholds the heap-effects certificate only:
	// the write set escapes run-allocated storage or cannot be bounded.
	// Heap diagnostics never affect admission or the stack-bounds
	// certificate.
	Heap bool
}

// String renders the diagnostic one per line, fpcdis-style.
func (d Diag) String() string {
	where := d.Proc
	if where == "" {
		where = "?"
	}
	return fmt.Sprintf("%s: pc %06x (%s): %s: %s", d.Level, d.PC, where, d.Reason, d.Msg)
}

// ProcInfo is the per-procedure summary the analysis computed.
type ProcInfo struct {
	Name  string
	Entry uint32
	// MaxDepth is the largest possible evaluation-stack depth at any pc of
	// the procedure (upper bound); -1 when the body was never reached.
	MaxDepth int
	// ResultLo/ResultHi bound the stack depth at the procedure's returns —
	// its result arity interval. Both are -1 when no RET was reached (the
	// procedure provably never returns normally).
	ResultLo, ResultHi int
	// Entry contexts the summary engine attributed to the procedure.
	// Called: reachable as an ordinary callee. TrapHandler: installed by a
	// reachable STRAP with a constant descriptor. XferTarget: a frame of
	// this procedure can be entered or resumed by a coroutine transfer.
	Called, TrapHandler, XferTarget bool
	// ResumeLo/ResumeHi bound the cross-depths (stack words carried) of the
	// transfers that can resume a suspended frame of this procedure — its
	// resume pool. Both are -1 when no tracked transfer targets it.
	ResumeLo, ResumeHi int
	// Retained reports that every reached return of the procedure carries
	// the RETAIN mark, so its frame outlives the call (§4 keepers).
	Retained bool
	// Writes is the procedure's heap write-set summary, including
	// everything its callees, transfer targets and armed trap handlers can
	// write on its behalf.
	Writes WriteSet
}

// WriteSet is a heap write-set summary: which storage classes a procedure
// (or the whole program) can write during a run. Frame-arena traffic —
// call frames, AV free-list links, records granted by AFB and released
// before certification cares — is the Frames/Records bits; Globals marks
// writes into module global space (state the boot image owns); Unknown
// marks a write the analysis could not place, which makes every bound
// vacuous.
type WriteSet struct {
	// Frames: frame-arena linkage traffic (call frames, AV links, saved
	// state). Every call or return sets it; it never blocks a certificate.
	Frames bool
	// Globals: stores into module global words (SGB in range).
	Globals bool
	// Records: stores into run-allocated records the verifier tracked.
	Records bool
	// Unknown: a write whose target could not be placed. All bounds are
	// off.
	Unknown bool
}

// union folds another write set into w.
func (w WriteSet) union(o WriteSet) WriteSet {
	return WriteSet{
		Frames:  w.Frames || o.Frames,
		Globals: w.Globals || o.Globals,
		Records: w.Records || o.Records,
		Unknown: w.Unknown || o.Unknown,
	}
}

// String renders the write set as a compact class list.
func (w WriteSet) String() string {
	var parts []string
	if w.Frames {
		parts = append(parts, "frames")
	}
	if w.Records {
		parts = append(parts, "records")
	}
	if w.Globals {
		parts = append(parts, "globals")
	}
	if w.Unknown {
		parts = append(parts, "unknown")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// EdgeKind classifies a call-graph edge.
type EdgeKind uint8

// Edge kinds. EdgeCall is an ordinary call with a statically resolved
// callee; EdgeXfer a coroutine transfer whose target region the summary
// engine pinned down; EdgeTrap a trap dispatch to a known handler;
// EdgeMay an edge whose target is unknown.
const (
	EdgeCall EdgeKind = iota
	EdgeXfer
	EdgeTrap
	EdgeMay
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeXfer:
		return "xfer"
	case EdgeTrap:
		return "trap"
	}
	return "may"
}

// CallEdge is one edge of the call graph. May mirrors Kind == EdgeMay:
// the callee is unknown, so Callee is the zero value.
type CallEdge struct {
	FromPC uint32
	Callee uint32 // callee entry pc (0 and May=true for unknown targets)
	Kind   EdgeKind
	May    bool
}

// Report is the verifier's structured result.
type Report struct {
	Diags []Diag
	Procs []ProcInfo
	Calls []CallEdge
	// Depths holds the per-pc abstract stack-depth interval [lo, hi] of
	// every reachable pc.
	Depths map[uint32][2]int
	// CertStackBounds is the stack-bounds certificate: every reachable
	// instruction provably keeps the evaluation stack inside
	// [0, isa.EvalStackDepth], and nothing reachable can corrupt the
	// linkage the proof depends on — a machine running this image may skip
	// the per-instruction stack-bounds checks.
	CertStackBounds bool
	// CertHeapEffects is the heap-effects certificate: every write the
	// program can perform provably lands in storage the run itself
	// allocated (frame arena, tracked records) — nothing escapes into the
	// boot image's state. A Reset after a certified run has a statically
	// known repair bound.
	CertHeapEffects bool
	// Writes is the program-level write-set summary: the union over every
	// reachable procedure and every pc outside procedure regions.
	Writes WriteSet
	// WriteFree reports that the run writes nothing the boot image owns:
	// no globals, no tracked records, no unknown targets — only the frame
	// arena the allocator and dirty tracking already account for. Reset
	// may elide the memory restore when the dirty window confirms it.
	WriteFree bool
	// GlobalWords is the total global-word footprint of the program's
	// module instances when Writes.Globals is set (0 otherwise): the
	// static cap on boot-image words a certified run can touch.
	GlobalWords int
	// MaxDirtyWords bounds the words a certified run can dirty in the
	// globals window [layout.GlobalsBase, HeapBase): -1 when the write set
	// is Unknown, else GlobalWords. Frame and record traffic lands in the
	// AV heads below the window and the frame arena above it, so the bound
	// is exactly the escaping footprint.
	MaxDirtyWords int
}

// Admitted reports whether the program passed verification: no Error-level
// diagnostic. An admitted program may still carry Warns (and be denied the
// certificate).
func (r *Report) Admitted() bool {
	for _, d := range r.Diags {
		if d.Level == LevelError {
			return false
		}
	}
	return true
}

// Errors returns the Error-level diagnostics.
func (r *Report) Errors() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Level == LevelError {
			out = append(out, d)
		}
	}
	return out
}

// Warnings returns the Warn-level diagnostics.
func (r *Report) Warnings() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Level == LevelWarn {
			out = append(out, d)
		}
	}
	return out
}

// CertReasons returns the sorted distinct reason codes of the
// certificate-blocking diagnostics: why an admitted program was denied
// CertStackBounds. Empty for certified (or rejected) programs.
func (r *Report) CertReasons() []string {
	seen := map[Reason]bool{}
	var out []string
	for _, d := range r.Diags {
		if d.Cert && !seen[d.Reason] {
			seen[d.Reason] = true
			out = append(out, string(d.Reason))
		}
	}
	sort.Strings(out)
	return out
}

// HeapCertReasons returns the sorted distinct reason codes of the
// heap-blocking diagnostics: why an admitted program was denied
// CertHeapEffects. Empty for heap-certified (or rejected) programs.
func (r *Report) HeapCertReasons() []string {
	seen := map[Reason]bool{}
	var out []string
	for _, d := range r.Diags {
		if d.Heap && !seen[d.Reason] {
			seen[d.Reason] = true
			out = append(out, string(d.Reason))
		}
	}
	sort.Strings(out)
	return out
}

// PrimaryCertReason returns the reason code of the certificate-blocking
// diagnostic at the lowest pc — the headline answer to "why is this
// program not certified" — or "" when nothing blocks the certificate.
func (r *Report) PrimaryCertReason() string {
	best := -1
	for i, d := range r.Diags {
		if d.Cert && (best < 0 || d.PC < r.Diags[best].PC) {
			best = i
		}
	}
	if best < 0 {
		return ""
	}
	return string(r.Diags[best].Reason)
}

// DepthAt reports the abstract stack-depth bounds at pc; ok is false when
// the verifier proved pc unreachable.
func (r *Report) DepthAt(pc uint32) (lo, hi int, ok bool) {
	d, ok := r.Depths[pc]
	return d[0], d[1], ok
}

// String renders the report for logs and CLI output: the verdict, every
// diagnostic, and the per-procedure depth summary.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "admitted"
	if !r.Admitted() {
		verdict = "rejected"
	} else {
		var certs []string
		if r.CertStackBounds {
			certs = append(certs, "stack bounds")
		}
		if r.CertHeapEffects {
			certs = append(certs, "heap effects")
		}
		if len(certs) > 0 {
			verdict = "admitted, " + strings.Join(certs, " + ") + " certified"
		}
	}
	fmt.Fprintf(&b, "verify: %s (%d diagnostics)\n", verdict, len(r.Diags))
	if r.Admitted() {
		dirty := "unbounded"
		if r.MaxDirtyWords >= 0 {
			dirty = fmt.Sprintf("<=%d words", r.MaxDirtyWords)
		}
		extra := ""
		if r.WriteFree {
			extra = ", write-free"
		}
		fmt.Fprintf(&b, "  writes: %s (dirty globals %s%s)\n", r.Writes, dirty, extra)
	}
	diags := append([]Diag(nil), r.Diags...)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Level != diags[j].Level {
			return diags[i].Level > diags[j].Level // errors first
		}
		return diags[i].PC < diags[j].PC
	})
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	for _, p := range r.Procs {
		if p.MaxDepth < 0 {
			fmt.Fprintf(&b, "  proc %s @%06x: unreached\n", p.Name, p.Entry)
			continue
		}
		res := "never returns"
		if p.ResultLo >= 0 {
			res = fmt.Sprintf("results [%d,%d]", p.ResultLo, p.ResultHi)
		}
		var ctx []string
		if p.Called {
			ctx = append(ctx, "called")
		}
		if p.TrapHandler {
			ctx = append(ctx, "trap handler")
		}
		if p.XferTarget {
			ctx = append(ctx, "xfer target")
		}
		if p.ResumeLo >= 0 {
			ctx = append(ctx, fmt.Sprintf("resume [%d,%d]", p.ResumeLo, p.ResumeHi))
		}
		if p.Retained {
			ctx = append(ctx, "retained")
		}
		ctx = append(ctx, "writes "+p.Writes.String())
		line := fmt.Sprintf("  proc %s @%06x: max stack %d, %s", p.Name, p.Entry, p.MaxDepth, res)
		if len(ctx) > 0 {
			line += " (" + strings.Join(ctx, ", ") + ")"
		}
		fmt.Fprintf(&b, "%s\n", line)
	}
	return b.String()
}
