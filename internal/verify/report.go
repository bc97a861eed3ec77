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
// verifier rejects the program. A Warn marks a likely compiler or
// relocation bug that the machine still executes; the program is
// admitted.
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
	// ReasonLinkage: a linkage word the machine reads — an entry-vector
	// slot, a procedure's frame-class byte, a global frame's code base or
	// a GFT slot — disagrees with the linker's instance metadata.
	ReasonLinkage Reason = "linkage-mismatch"
)

// Diag is one per-pc diagnostic.
type Diag struct {
	PC     uint32
	Proc   string // "Module.proc" owning the pc, when known
	Level  Level
	Reason Reason
	Msg    string
}

// String renders the diagnostic one per line, fpcdis-style.
func (d Diag) String() string {
	where := d.Proc
	if where == "" {
		where = "?"
	}
	return fmt.Sprintf("%s: pc %06x (%s): %s: %s", d.Level, d.PC, where, d.Reason, d.Msg)
}

// Report is the verifier's structured result: its diagnostics and the
// per-pc depth intervals behind them.
type Report struct {
	Diags   []Diag
	depth   []interval
	reached []bool
}

// Admitted reports whether the program passed verification: no Error-level
// diagnostic. An admitted program may still carry Warns.
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

// DepthAt reports the abstract stack-depth bounds at pc; ok is false when
// the verifier proved pc unreachable.
func (r *Report) DepthAt(pc uint32) (lo, hi int, ok bool) {
	if int(pc) >= len(r.reached) || !r.reached[pc] {
		return 0, 0, false
	}
	return r.depth[pc].lo, r.depth[pc].hi, true
}

// String renders the report for logs and CLI output: the verdict and
// every diagnostic, errors first.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "admitted"
	if !r.Admitted() {
		verdict = "rejected"
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
	return b.String()
}
