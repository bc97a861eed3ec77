package isa

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
