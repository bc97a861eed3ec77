package core

import (
	"fmt"

	"repro/internal/frames"
	"repro/internal/ifu"
	"repro/internal/image"
	"repro/internal/mem"
	"repro/internal/regbank"
)

// The embryo bit: a context created by COCREATE but never yet run has bit 0
// of its globalFrame word set (global frames are quad-aligned, so the low
// bits are free). The first XFER into the frame delivers the argument
// record into its locals and clears the bit.
const embryoBit mem.Word = 1

// resolveProc walks the §5.1 indirection chain for a packed procedure
// descriptor: GFT entry → global frame (code base) → entry vector → frame
// size index. Every step is a charged reference; Figure 1 is this routine.
func (m *Machine) resolveProc(desc mem.Word) (gf mem.Addr, cb uint32, entry uint32, fsi int, err error) {
	gfi, ev := image.UnpackProc(desc)
	gfte := m.read(image.GFTBase + mem.Addr(gfi)) // ref: GFT
	gf, bias := image.UnpackGFTEntry(gfte)
	cb, err = m.loadCodeBase(gf) // refs: code base (two words)
	if err != nil {
		return
	}
	evIdx := ev + bias
	evOff, err := m.codeRead16(cb + uint32(2*evIdx)) // ref: entry vector
	if err != nil {
		return
	}
	fsib, err := m.codeRead8(cb + uint32(evOff)) // ref: frame size index
	if err != nil {
		return
	}
	fsi = int(fsib)
	entry = cb + uint32(evOff) + 1
	return
}

// enterProc is the common tail of every call: allocate the frame, record
// the suspended caller (return stack or caller frame), deliver linkage and
// arguments, and redirect execution. cbValid is false for direct calls,
// whose code base is loaded lazily (§6: the fast path never needs it).
func (m *Machine) enterProc(gf mem.Addr, cb uint32, cbValid bool, entry uint32, fsi int, kind TransferKind) error {
	newLF, actualFSI, err := m.allocFrame(fsi)
	if err != nil {
		return m.allocTrap(err)
	}

	// Suspend the caller.
	if m.lf != 0 {
		if m.rs.Depth() > 0 {
			e := ifu.Entry{LF: uint16(m.lf), GF: uint16(m.gf), PC: m.pc,
				FSI: m.curFSI, Retained: m.curRet, CalleeLF: uint16(newLF)}
			if old, evicted := m.rs.Push(e); evicted {
				m.metrics.RSEvicted++
				if err := m.flushRSEntry(old); err != nil {
					return err
				}
			}
		} else {
			// I2: the caller's PC goes into the PC component of its frame.
			if err := m.ensureCodeBase(); err != nil {
				return err
			}
			m.frameStore(m.lf, 2, mem.Word(m.pc-m.codeBase))
		}
	}

	returnLink := image.FramePtr(m.lf)

	// Deliver linkage and arguments into the callee frame.
	if m.cfg.RegBanks > 0 {
		// §7.2: the bank holding the evaluation stack is renamed to shadow
		// the callee's frame; the arguments appear as the first locals
		// with no data movement.
		b := m.stackBank
		if b < 0 {
			b = m.acquireBank(regbank.OwnerStack)
		}
		for i := 0; i < m.sp; i++ {
			if off := image.FrameHeaderWords + i; off < m.cfg.BankWords {
				m.banks.Write(b, off, m.stack[i])
			} else {
				// argument beyond the bank window: into storage (§7.1's
				// "references to the shadowed words" only covers the
				// first bank-size words of the frame)
				m.write(newLF+mem.Addr(image.FrameHeaderWords+i), m.stack[i])
				m.metrics.ArgWordsMoved++
			}
		}
		m.banks.Write(b, 0, returnLink)
		m.banks.Write(b, 1, gf)
		m.banks.Rename(b, int32(newLF))
		m.metrics.BankRenames++
		m.frameBank = m.banks.Get(b)
		m.stackBank = m.acquireBank(regbank.OwnerStack)
	} else {
		m.write(newLF+0, returnLink)
		m.write(newLF+1, gf)
		for i := 0; i < m.sp; i++ {
			m.write(newLF+mem.Addr(image.FrameHeaderWords+i), m.stack[i])
			m.metrics.ArgWordsMoved++
		}
	}

	m.retCtx = returnLink
	m.sp = 0
	m.lf = newLF
	m.gf = gf
	m.pc = entry
	m.codeBase, m.cbValid = cb, cbValid
	m.curFSI, m.curRet = actualFSI, false

	if kind == KindDirectCall {
		m.cycles += CycRefill
	} else {
		m.cycles += CycRefill + CycComputedTarget
	}
	m.metrics.Transfers[kind]++
	m.recordTransfer(kind)
	return nil
}

// doReturn implements RETURN: free the frame (unless retained), set
// returnContext to NIL, and transfer to the return link — from the return
// stack when it hits (as fast as a call, §6) or through storage otherwise.
func (m *Machine) doReturn() error {
	retiring, fsi, retained := m.lf, m.curFSI, m.curRet
	m.retCtx = 0
	if e, ok := m.rs.Pop(); ok {
		m.metrics.RSHits++
		if err := m.freeFrame(retiring, fsi, retained); err != nil {
			return err
		}
		m.lf, m.gf, m.pc = mem.Addr(e.LF), mem.Addr(e.GF), e.PC
		m.cbValid = false
		m.curFSI, m.curRet = e.FSI, e.Retained
		m.frameBank = nil
		if m.lf != 0 {
			m.frameBank = m.shadowFrame(m.lf)
		}
		m.cycles += CycRefill
		m.metrics.Transfers[KindReturn]++
		m.recordTransfer(KindReturn)
		return m.restoreTrapSave(retiring)
	}
	m.metrics.RSMisses++
	rl := m.frameLoad(retiring, 0)
	if err := m.freeFrame(retiring, fsi, retained); err != nil {
		return err
	}
	if err := m.xferIn(rl, KindReturn); err != nil {
		return err
	}
	return m.restoreTrapSave(retiring)
}

// xferIn is the general destination side of XFER: a procedure descriptor
// constructs a new context; a frame pointer resumes an existing one; NIL
// ends the computation (the boot context's return link).
func (m *Machine) xferIn(ctx mem.Word, kind TransferKind) error {
	if ctx == 0 {
		m.halted = true
		return nil
	}
	if image.IsProc(ctx) {
		gf, cb, entry, fsi, err := m.resolveProc(ctx)
		if err != nil {
			return err
		}
		return m.enterProc(gf, cb, true, entry, fsi, kind)
	}
	f := mem.Addr(ctx)
	if f >= image.HeapLimit || f < image.GlobalsBase {
		return fmt.Errorf("%w: frame %04x", ErrBadContext, ctx)
	}
	fb := m.shadowFrame(f)
	gfw := m.frameLoad(f, 1)
	if gfw&embryoBit != 0 {
		// First transfer into a created context: deliver the argument
		// record into its locals (the prologue-free convention) and clear
		// the embryo bit.
		m.frameStore(f, 1, gfw&^embryoBit)
		for i := 0; i < m.sp; i++ {
			m.frameStore(f, image.FrameHeaderWords+i, m.stack[i])
			m.metrics.ArgWordsMoved++
		}
		m.sp = 0
		gfw &^= embryoBit
	}
	gf := mem.Addr(gfw)
	relpc := m.frameLoad(f, 2)
	cb, err := m.loadCodeBase(gf)
	if err != nil {
		return err
	}
	m.lf, m.gf = f, gf
	m.frameBank = fb
	m.codeBase, m.cbValid = cb, true
	m.pc = cb + uint32(relpc)
	m.curFSI, m.curRet = -1, false
	m.cycles += CycRefill + CycComputedTarget
	m.metrics.Transfers[kind]++
	m.recordTransfer(kind)
	return nil
}

// xferOut saves the running context so that any other context can resume
// it later: its PC (relative to the code base) goes into the frame, and —
// since this is an XFER other than a simple call or return — the return
// stack is flushed (§6's orderly fallback).
func (m *Machine) xferOut() error {
	if m.lf == 0 {
		return fmt.Errorf("%w: XFER outside any context", ErrBadContext)
	}
	if err := m.ensureCodeBase(); err != nil {
		return err
	}
	m.frameStore(m.lf, 2, mem.Word(m.pc-m.codeBase))
	for _, e := range m.rs.Flush() {
		m.metrics.RSFlushed++
		if err := m.flushRSEntry(e); err != nil {
			return err
		}
	}
	m.retCtx = image.FramePtr(m.lf)
	return nil
}

// doCocreate implements COCREATE: construct a suspended context for a
// procedure descriptor. The first XFER to it begins execution with that
// transfer's argument record.
func (m *Machine) doCocreate(desc mem.Word) error {
	if !image.IsProc(desc) {
		return fmt.Errorf("%w: COCREATE of non-procedure %04x", ErrBadContext, desc)
	}
	gf, cb, entry, fsi, err := m.resolveProc(desc)
	if err != nil {
		return err
	}
	newLF, _, err := m.allocFrame(fsi)
	if err != nil {
		return m.allocTrap(err)
	}
	m.frameStore(newLF, 0, 0) // return link: NIL until someone calls it
	m.frameStore(newLF, 1, mem.Word(gf)|embryoBit)
	m.frameStore(newLF, 2, mem.Word(entry-cb))
	m.metrics.Creates++
	return m.push(image.FramePtr(newLF))
}

// doFree implements FREE: explicitly release a context, retained or not.
func (m *Machine) doFree(ctx mem.Word) error {
	if image.IsProc(ctx) || ctx == 0 {
		return fmt.Errorf("%w: FREE of %04x", ErrBadContext, ctx)
	}
	lf := mem.Addr(ctx)
	hdr := m.read(lf - frames.Overhead)
	m.metrics.HeaderReads++
	fsi := int(hdr & 0xff)
	if hdr&(frames.FlagRetained|frames.FlagPointers) != 0 {
		m.write(lf-frames.Overhead, mem.Word(fsi)) // clean the flags for reuse
	}
	if b := m.bankOf(lf); b >= 0 {
		m.banks.Release(b)
	}
	if m.stdFSI >= 0 && fsi == m.stdFSI && len(m.freeFrames) < m.cfg.FreeFrameStack {
		m.freeFrames = append(m.freeFrames, lf)
		m.metrics.FFPushes++
		return nil
	}
	return m.heap.FreeKnown(lf, fsi)
}

// Fallback flushes the return stack and every register bank to storage —
// the full retreat to the general scheme used around process switches and
// traps ("when life gets complicated ... all the banks are flushed").
func (m *Machine) Fallback() error { return m.fallback() }

func (m *Machine) allocTrap(err error) error {
	if terr := m.trap(TrapAlloc); terr != nil {
		return fmt.Errorf("%v (alloc: %w)", terr, err)
	}
	return nil
}
