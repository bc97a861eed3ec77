package isa

// Class groups opcodes by the handler family that executes them — the
// "kind" column of the static per-opcode metadata table. The execution
// engine's dispatch table is indexed by opcode, not class; Class exists so
// the predecoder can fold fast forms into their general handler's operand
// and so tests can assert every kind is covered by a live handler.
type Class byte

// Handler classes.
const (
	ClassMisc    Class = iota // NOOP, HALT, OUT, DUP, POP, EXCH, LRC, LLF, RETAIN
	ClassLocal                // LL*/SL*/LLB/SLB/LAB
	ClassGlobal               // LG*/LGB/SGB
	ClassLit                  // LIN1/LI*/LIB/LIW
	ClassArith                // ADD..SHR
	ClassPointer              // LDIND/STIND/RFB/WFB
	ClassJump                 // JB..JGEB
	ClassCall                 // EFC*/EFCB/LFC*/LFCB/DCALL/SDCALL
	ClassXfer                 // RET/XFERO/COCREATE/FREE
	ClassFrame                // AFB/FFREE
	ClassTrap                 // TRAPB/STRAP
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassMisc:
		return "misc"
	case ClassLocal:
		return "local"
	case ClassGlobal:
		return "global"
	case ClassLit:
		return "lit"
	case ClassArith:
		return "arith"
	case ClassPointer:
		return "pointer"
	case ClassJump:
		return "jump"
	case ClassCall:
		return "call"
	case ClassXfer:
		return "xfer"
	case ClassFrame:
		return "frame"
	case ClassTrap:
		return "trap"
	}
	return "?"
}

// VarEffect marks a stack effect that depends on machine state: calls and
// transfers consume the whole argument record, and a transfer's results
// arrive with the resumed context.
const VarEffect int8 = -1

// init fills the derived columns of the metadata table. The fast one-byte
// forms embed their operand in the opcode (LL3's local index, EFC5's link
// vector slot, LI4's literal); recording that value here lets Predecode
// resolve it once, so a single handler serves the fast and general forms
// with no range tests on the hot path.
func init() {
	setEmb := func(lo, hi Op, base int32) {
		for op := lo; op <= hi; op++ {
			infos[op].EmbArg = base + int32(op-lo)
			infos[op].HasEmb = true
		}
	}
	setEmb(LL0, LL7, 0)
	setEmb(SL0, SL7, 0)
	setEmb(LG0, LG3, 0)
	setEmb(LI0, LI7, 0)
	setEmb(LIN1, LIN1, 0xFFFF)
	setEmb(EFC0, EFC7, 0)
	setEmb(LFC0, LFC3, 0)

	class := func(c Class, lo, hi Op) {
		for op := lo; op <= hi; op++ {
			infos[op].Class = c
		}
	}
	class(ClassMisc, NOOP, OUT)
	class(ClassLocal, LL0, LAB)
	class(ClassGlobal, LG0, SGB)
	class(ClassLit, LIN1, LIW)
	class(ClassArith, ADD, SHR)
	class(ClassMisc, DUP, EXCH)
	class(ClassPointer, LDIND, WFB)
	class(ClassJump, JB, JGEB)
	class(ClassCall, EFC0, SDCALL)
	class(ClassXfer, RET, COCREATE)
	class(ClassMisc, LRC, RETAIN)
	class(ClassXfer, FREE, FREE)
	class(ClassFrame, AFB, FFREE)
	class(ClassTrap, TRAPB, STRAP)

	effect := func(pops, pushes int8, lo, hi Op) {
		for op := lo; op <= hi; op++ {
			infos[op].Pops, infos[op].Pushes = pops, pushes
		}
	}
	effect(0, 0, NOOP, HALT)
	effect(1, 0, OUT, OUT)
	effect(0, 1, LL0, LL7)
	effect(1, 0, SL0, SL7)
	effect(0, 1, LLB, LLB)
	effect(1, 0, SLB, SLB)
	effect(0, 1, LAB, LAB)
	effect(0, 1, LG0, LGB)
	effect(1, 0, SGB, SGB)
	effect(0, 1, LIN1, LIW)
	effect(2, 1, ADD, MOD)
	effect(1, 1, NEG, NEG)
	effect(2, 1, AND, XOR)
	effect(1, 1, NOT, NOT)
	effect(2, 1, SHL, SHR)
	effect(1, 2, DUP, DUP)
	effect(1, 0, POP, POP)
	effect(2, 2, EXCH, EXCH)
	effect(1, 1, LDIND, LDIND)
	effect(2, 0, STIND, STIND)
	effect(1, 1, RFB, RFB)
	effect(2, 0, WFB, WFB)
	effect(0, 0, JB, JW)
	effect(1, 0, JZB, JNZB)
	effect(2, 0, JEB, JGEB)
	effect(VarEffect, VarEffect, EFC0, XFERO) // calls, RET, XFERO
	effect(1, 1, COCREATE, COCREATE)
	effect(0, 1, LRC, LLF)
	effect(0, 0, RETAIN, RETAIN)
	effect(1, 0, FREE, FREE)
	effect(0, 1, AFB, AFB)
	effect(1, 0, FFREE, FFREE)
	effect(VarEffect, VarEffect, TRAPB, TRAPB) // may transfer to a handler context
	effect(1, 0, STRAP, STRAP)
}
