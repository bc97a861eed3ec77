package core

import (
	"repro/internal/frames"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The decode-once execution engine. The shared LoadedImage predecodes the
// immutable byte stream at load time (isa.Predecode); executing one
// instruction is then a table index plus one indirect call through the
// per-opcode handler table below — no isa.Decode, no operand assembly and
// no range-check switch on the hot path. Step is the single-instruction
// wrapper over the same handlers Run's inner loop drives.

// Step executes one instruction. It returns ErrHalted once the machine has
// halted.
func (m *Machine) Step() error {
	if m.halted {
		return ErrHalted
	}
	pc := m.pc
	if pc >= uint32(len(m.code)) {
		return isa.ErrPCRange(int(pc), len(m.code))
	}
	in := &m.insts[pc]
	if !in.Valid() {
		return in.Err(m.code, int(pc))
	}
	m.pc = pc + uint32(in.Size)
	m.metrics.Instructions++
	m.cycles += CycDispatch
	return handlers[in.Op](m, in)
}

// handlerFunc executes one predecoded instruction. The program counter has
// already been advanced past the instruction and the dispatch cycle
// charged when a handler runs.
type handlerFunc func(*Machine, *isa.Inst) error

// handlers is the dispatch table, indexed by opcode, that Run and Step use
// for every image. Every defined opcode has exactly one entry: init panics
// on a second registration, and TestHandlerTableTotal asserts none is
// missing. Undefined opcodes never reach the table because predecode marks
// them invalid.
var handlers [isa.NumOps]handlerFunc

func init() {
	set := func(f handlerFunc, lo, hi isa.Op) {
		for op := lo; op <= hi; op++ {
			if handlers[op] != nil {
				panic("core: a second handler for " + op.String())
			}
			handlers[op] = f
		}
	}
	one := func(f handlerFunc, op isa.Op) { set(f, op, op) }

	one(hNoop, isa.NOOP)
	one(hHalt, isa.HALT)
	one(hOut, isa.OUT)
	set(hLoadLocal, isa.LL0, isa.LL7)
	set(hStoreLocal, isa.SL0, isa.SL7)
	one(hLoadLocal, isa.LLB)
	one(hStoreLocal, isa.SLB)
	one(hLocalAddr, isa.LAB)
	set(hLoadGlobal, isa.LG0, isa.LG3)
	one(hLoadGlobal, isa.LGB)
	one(hStoreGlobal, isa.SGB)
	set(hLit, isa.LIN1, isa.LIW)
	one(hAdd, isa.ADD)
	one(hSub, isa.SUB)
	one(hMul, isa.MUL)
	one(hDiv, isa.DIV)
	one(hMod, isa.MOD)
	one(hNeg, isa.NEG)
	one(hAnd, isa.AND)
	one(hOr, isa.OR)
	one(hXor, isa.XOR)
	one(hNot, isa.NOT)
	one(hShl, isa.SHL)
	one(hShr, isa.SHR)
	one(hDup, isa.DUP)
	one(hPop, isa.POP)
	one(hExch, isa.EXCH)
	one(hLdind, isa.LDIND)
	one(hStind, isa.STIND)
	one(hReadField, isa.RFB)
	one(hWriteField, isa.WFB)
	set(hJump, isa.JB, isa.JW)
	one(hJumpZero, isa.JZB)
	one(hJumpNonzero, isa.JNZB)
	set(hCompareJump, isa.JEB, isa.JGEB)
	set(hExternalCall, isa.EFC0, isa.EFCB)
	set(hLocalCall, isa.LFC0, isa.LFCB)
	set(hDirectCall, isa.DCALL, isa.SDCALL)
	one(hReturn, isa.RET)
	one(hXfer, isa.XFERO)
	one(hCocreate, isa.COCREATE)
	one(hLoadRetCtx, isa.LRC)
	one(hLoadFrame, isa.LLF)
	one(hRetain, isa.RETAIN)
	one(hFree, isa.FREE)
	one(hAllocFrame, isa.AFB)
	one(hFreeFrame, isa.FFREE)
	one(hTrap, isa.TRAPB)
	one(hSetTrap, isa.STRAP)
}

func hNoop(m *Machine, _ *isa.Inst) error { return nil }

func hHalt(m *Machine, _ *isa.Inst) error {
	m.halted = true
	return nil
}

func hOut(m *Machine, _ *isa.Inst) error {
	v, err := m.pop()
	if err != nil {
		return err
	}
	m.Output = append(m.Output, v)
	return nil
}

// Locals. Predecode folded the fast forms' index into Arg.

// The local-variable handlers read and write the running frame's bank
// directly while frameBank still shadows lf, and take frameLoad/frameStore's
// lookup otherwise; both count the same bank hit or miss.

func hLoadLocal(m *Machine, in *isa.Inst) error {
	m.metrics.LocalVarRefs++
	off := image.FrameHeaderWords + int(in.Arg)
	if b := m.frameBank; b != nil && b.Owner == int32(m.lf) && off < len(b.Words) {
		m.metrics.BankHits++
		return m.push(b.Words[off])
	}
	return m.push(m.frameLoad(m.lf, off))
}

func hStoreLocal(m *Machine, in *isa.Inst) error {
	m.metrics.LocalVarRefs++
	v, err := m.pop()
	if err != nil {
		return err
	}
	off := image.FrameHeaderWords + int(in.Arg)
	if b := m.frameBank; b != nil && b.Owner == int32(m.lf) && off < len(b.Words) {
		m.metrics.BankHits++
		b.Write(off, v)
		return nil
	}
	m.frameStore(m.lf, off, v)
	return nil
}

func hLocalAddr(m *Machine, in *isa.Inst) error { return m.localAddress(int(in.Arg)) }

// Globals (word 0,1 of the global frame hold the code base).

func hLoadGlobal(m *Machine, in *isa.Inst) error {
	m.metrics.GlobalVarRefs++
	return m.push(m.read(m.gf + 2 + mem.Addr(in.Arg)))
}

func hStoreGlobal(m *Machine, in *isa.Inst) error {
	m.metrics.GlobalVarRefs++
	v, err := m.pop()
	if err != nil {
		return err
	}
	m.write(m.gf+2+mem.Addr(in.Arg), v)
	return nil
}

// Literals: LIN1 and LI0..LI7 carry their value in Arg after folding.

func hLit(m *Machine, in *isa.Inst) error { return m.push(mem.Word(in.Arg)) }

// Arithmetic and logic. pop2 pops the two operands of a binary operation.

func (m *Machine) pop2() (a, b mem.Word, err error) {
	if b, err = m.pop(); err != nil {
		return
	}
	a, err = m.pop()
	return
}

func hAdd(m *Machine, _ *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	return m.push(isa.Add(a, b))
}

func hSub(m *Machine, _ *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	return m.push(isa.Sub(a, b))
}

func hMul(m *Machine, _ *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	return m.push(isa.Mul(a, b))
}

func hDiv(m *Machine, _ *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	v, ok := isa.Div(a, b)
	if !ok {
		return m.divZero()
	}
	return m.push(v)
}

func hMod(m *Machine, _ *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	v, ok := isa.Mod(a, b)
	if !ok {
		return m.divZero()
	}
	return m.push(v)
}

// divZero routes a division by zero: to the trap handler when one is
// installed (the handler context now runs; its results will land on the
// stack exactly where this operation's result would have), the default
// result 0 otherwise.
func (m *Machine) divZero() error {
	handled, err := m.trapXfer(TrapDivZero)
	if err != nil {
		return err
	}
	if handled {
		return nil
	}
	return m.push(0)
}

func hNeg(m *Machine, _ *isa.Inst) error {
	a, err := m.pop()
	if err != nil {
		return err
	}
	return m.push(isa.Neg(a))
}

func hAnd(m *Machine, _ *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	return m.push(a & b)
}

func hOr(m *Machine, _ *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	return m.push(a | b)
}

func hXor(m *Machine, _ *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	return m.push(a ^ b)
}

func hNot(m *Machine, _ *isa.Inst) error {
	a, err := m.pop()
	if err != nil {
		return err
	}
	return m.push(^a)
}

func hShl(m *Machine, _ *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	return m.push(isa.Shl(a, b))
}

func hShr(m *Machine, _ *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	return m.push(isa.Shr(a, b))
}

// Stack manipulation.

func hDup(m *Machine, _ *isa.Inst) error {
	v, err := m.pop()
	if err != nil {
		return err
	}
	if err := m.push(v); err != nil {
		return err
	}
	return m.push(v)
}

func hPop(m *Machine, _ *isa.Inst) error {
	_, err := m.pop()
	return err
}

func hExch(m *Machine, _ *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	if err := m.push(b); err != nil {
		return err
	}
	return m.push(a)
}

// Memory through pointers.

func hLdind(m *Machine, _ *isa.Inst) error {
	m.metrics.PointerRefs++
	a, err := m.pop()
	if err != nil {
		return err
	}
	return m.push(m.read(a))
}

func hStind(m *Machine, _ *isa.Inst) error {
	m.metrics.PointerRefs++
	a, err := m.pop()
	if err != nil {
		return err
	}
	v, err := m.pop()
	if err != nil {
		return err
	}
	m.write(a, v)
	return nil
}

func hReadField(m *Machine, in *isa.Inst) error {
	m.metrics.PointerRefs++
	p, err := m.pop()
	if err != nil {
		return err
	}
	return m.push(m.read(p + mem.Addr(in.Arg)))
}

func hWriteField(m *Machine, in *isa.Inst) error {
	m.metrics.PointerRefs++
	p, err := m.pop()
	if err != nil {
		return err
	}
	v, err := m.pop()
	if err != nil {
		return err
	}
	m.write(p+mem.Addr(in.Arg), v)
	return nil
}

// Jumps: the absolute target was computed at predecode time.

func hJump(m *Machine, in *isa.Inst) error {
	m.pc = in.Target
	m.cycles += CycRefill
	return nil
}

func hJumpZero(m *Machine, in *isa.Inst) error {
	v, err := m.pop()
	if err != nil {
		return err
	}
	if v == 0 {
		m.pc = in.Target
		m.cycles += CycRefill
	}
	return nil
}

func hJumpNonzero(m *Machine, in *isa.Inst) error {
	v, err := m.pop()
	if err != nil {
		return err
	}
	if v != 0 {
		m.pc = in.Target
		m.cycles += CycRefill
	}
	return nil
}

func hCompareJump(m *Machine, in *isa.Inst) error {
	a, b, err := m.pop2()
	if err != nil {
		return err
	}
	if isa.Compare(in.Op, a, b) {
		m.pc = in.Target
		m.cycles += CycRefill
	}
	return nil
}

// Calls and transfers. The fast forms' slot was folded into Arg.

func hExternalCall(m *Machine, in *isa.Inst) error { return m.externalCall(int(in.Arg)) }

func hLocalCall(m *Machine, in *isa.Inst) error { return m.localCall(int(in.Arg)) }

// hDirectCall is the engine's counterpart of the paper's fastest transfer:
// with the inline header pre-read at predecode time, entering the callee
// needs no decode work and no code reads at all. A header outside the code
// space falls back to directCall, which reproduces the exact out-of-range
// error the byte-decoding engine raised.
func hDirectCall(m *Machine, in *isa.Inst) error {
	if !in.CallOK {
		return m.directCall(in.Target)
	}
	m.snapshot()
	return m.enterProc(mem.Addr(in.GF), 0, false, in.Target+isa.HeaderSkip, int(in.FSI), KindDirectCall)
}

func hReturn(m *Machine, _ *isa.Inst) error {
	m.snapshot()
	return m.doReturn()
}

func hXfer(m *Machine, _ *isa.Inst) error {
	ctx, err := m.pop()
	if err != nil {
		return err
	}
	m.snapshot()
	if err := m.xferOut(); err != nil {
		return err
	}
	return m.xferIn(ctx, KindXfer)
}

func hCocreate(m *Machine, _ *isa.Inst) error {
	desc, err := m.pop()
	if err != nil {
		return err
	}
	return m.doCocreate(desc)
}

func hLoadRetCtx(m *Machine, _ *isa.Inst) error { return m.push(m.retCtx) }

func hLoadFrame(m *Machine, _ *isa.Inst) error { return m.push(image.FramePtr(m.lf)) }

func hRetain(m *Machine, _ *isa.Inst) error {
	m.heap.SetFlag(m.lf, frames.FlagRetained)
	m.curRet = true
	return nil
}

func hFree(m *Machine, _ *isa.Inst) error {
	ctx, err := m.pop()
	if err != nil {
		return err
	}
	return m.doFree(ctx)
}

// Heap access for long records and retained storage.

func hAllocFrame(m *Machine, in *isa.Inst) error {
	lf, err := m.heap.Alloc(int(in.Arg))
	if err != nil {
		return m.allocTrap(err)
	}
	return m.push(image.FramePtr(lf))
}

func hFreeFrame(m *Machine, _ *isa.Inst) error {
	p, err := m.pop()
	if err != nil {
		return err
	}
	return m.heap.Free(mem.Addr(p))
}

func hTrap(m *Machine, in *isa.Inst) error {
	handled, err := m.trapXfer(int(in.Arg))
	if err != nil {
		return err
	}
	if !handled {
		// A Go-level handler resolved the trap; supply the default
		// result so the stack discipline holds.
		return m.push(0)
	}
	return nil
}

func hSetTrap(m *Machine, _ *isa.Inst) error {
	ctx, err := m.pop()
	if err != nil {
		return err
	}
	m.trapCtx = ctx
	return nil
}

// externalCall is the §5.1 EXTERNALCALL: the link vector hangs below the
// global frame, so one reference yields the destination context.
func (m *Machine) externalCall(slot int) error {
	m.snapshot()
	ctx := m.read(m.gf - 1 - mem.Addr(slot)) // LV entry
	if image.IsProc(ctx) {
		gf, cb, entry, fsi, err := m.resolveProc(ctx)
		if err != nil {
			return err
		}
		return m.enterProc(gf, cb, true, entry, fsi, KindExternalCall)
	}
	// The link vector may hold any context (F3): fall back to a general
	// transfer.
	if err := m.xferOut(); err != nil {
		return err
	}
	return m.xferIn(ctx, KindXfer)
}

// localCall is the §5.1 LOCALCALL: same environment and code base, one
// level of indirection (the entry vector).
func (m *Machine) localCall(ev int) error {
	m.snapshot()
	if err := m.ensureCodeBase(); err != nil {
		return err
	}
	evOff, err := m.codeRead16(m.codeBase + uint32(2*ev))
	if err != nil {
		return err
	}
	fsib, err := m.codeRead8(m.codeBase + uint32(evOff))
	if err != nil {
		return err
	}
	return m.enterProc(m.gf, m.codeBase, true, m.codeBase+uint32(evOff)+1, int(fsib), KindLocalCall)
}

// directCall is the §6 DIRECTCALL/SHORTDIRECTCALL general path, kept for
// headers predecode could not resolve: the callee's global frame and frame
// size index sit inline at the target, prefetched by the IFU, so the
// transfer needs no data references to find its destination.
func (m *Machine) directCall(hdr uint32) error {
	m.snapshot()
	gfw, err := m.codePeek16(hdr)
	if err != nil {
		return err
	}
	fsib, err := m.codePeek8(hdr + 2)
	if err != nil {
		return err
	}
	return m.enterProc(mem.Addr(gfw), 0, false, hdr+3, int(fsib), KindDirectCall)
}

// localAddress implements LAB (§7.4): constructing a pointer to a local
// rules out keeping the frame in a register bank, so the bank is flushed
// and released and the frame flagged.
func (m *Machine) localAddress(n int) error {
	if b := m.bankOf(m.lf); b >= 0 {
		m.flushBank(m.banks.Get(b))
		m.banks.Release(b)
		m.metrics.PointerFlushes++
	}
	m.heap.SetFlag(m.lf, frames.FlagPointers)
	return m.push(m.lf + mem.Addr(image.FrameHeaderWords+n))
}
