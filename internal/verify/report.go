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
	} else if r.CertStackBounds {
		verdict = "admitted, stack bounds certified"
	}
	fmt.Fprintf(&b, "verify: %s (%d diagnostics)\n", verdict, len(r.Diags))
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
		line := fmt.Sprintf("  proc %s @%06x: max stack %d, %s", p.Name, p.Entry, p.MaxDepth, res)
		if len(ctx) > 0 {
			line += " (" + strings.Join(ctx, ", ") + ")"
		}
		fmt.Fprintf(&b, "%s\n", line)
	}
	return b.String()
}
