package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/regbank"
)

// Start arms the machine to run desc with args — Call's setup without the
// run loop — so a caller can drive execution one Step at a time (tracing,
// opcode-coverage accounting, differential step-vs-run oracles). The
// transfer into desc is performed; the machine is then ready for Step or
// Run.
func (m *Machine) Start(desc mem.Word, args ...mem.Word) error {
	if m.prog == nil {
		return ErrNotBooted
	}
	if len(args) > EvalStackDepth {
		return fmt.Errorf("%w: %d arguments", ErrStack, len(args))
	}
	m.halted = false
	m.sp = 0
	for _, a := range args {
		m.stack[m.sp] = a
		m.sp++
	}
	m.lf, m.gf = 0, 0
	m.cbValid = false
	m.curFSI, m.curRet = -1, false
	m.retCtx = 0
	m.trapSaves, m.trapWords = m.trapSaves[:0], m.trapWords[:0]
	if m.cfg.RegBanks > 0 && m.stackBank < 0 {
		m.stackBank = m.acquireBank(regbank.OwnerStack)
	}
	m.snapshot()
	return m.xferIn(desc, KindXfer)
}

// Call transfers to a procedure descriptor from outside the machine (the
// role the paper's creation context plays for the whole computation) and
// runs until the computation returns to NIL or HALTs. The final argument
// record — the entry procedure's results — is returned.
func (m *Machine) Call(desc mem.Word, args ...mem.Word) ([]mem.Word, error) {
	if err := m.Start(desc, args...); err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	return append([]mem.Word(nil), m.stack[:m.sp]...), nil
}

// CallNamed resolves "Module.proc" in the program and calls it.
func (m *Machine) CallNamed(module, proc string, args ...mem.Word) ([]mem.Word, error) {
	desc, err := m.prog.FindProc(module, proc)
	if err != nil {
		return nil, err
	}
	return m.Call(desc, args...)
}

// cancelCheckInterval is how often (in executed instructions) Run probes
// the cancel hook and the deadline. At the simulator's step rate the probe
// fires about every few microseconds of wall clock — fine-grained enough
// for request deadlines, cheap enough to leave enabled on every serving
// call.
const cancelCheckInterval = 1024

// Run executes until the machine halts, fails, exceeds the step limit, or
// is cut by the per-run budget, the cancel hook or the deadline
// (SetRunBudget, SetCancel, SetDeadline). However the run ends, the
// machine's metrics account the work actually done, and Reset still
// restores boot state.
//
// The loop is the decode-once engine's fast path: the budget and cancel
// countdowns are batched into a pause point ahead of time, so the inner
// loop executes predecoded instructions with nothing between them but a
// table index and the handler call. Each trip retires exactly one
// instruction, which is what makes the batching exact: the inner loop
// stops on precisely the instruction the per-step checks would have, and
// segmented runs merge to byte-identical metrics.
func (m *Machine) Run() error {
	limit := m.cfg.MaxSteps
	if m.runBudget > 0 {
		// Instructions + runBudget can wrap for budgets near ^uint64(0);
		// a wrapped sum would make the limit tiny and fail a healthy run,
		// so a budget that overflows simply cannot tighten the limit.
		if b := m.metrics.Instructions + m.runBudget; b >= m.metrics.Instructions && b < limit {
			limit = b
		}
	}
	insts := m.insts
	ncode := uint32(len(m.code))
	for !m.halted {
		if m.metrics.Instructions >= limit {
			return fmt.Errorf("%w: %d", ErrMaxSteps, limit)
		}
		stop := limit
		if m.cancel != nil || !m.deadline.IsZero() {
			if m.metrics.Instructions >= m.cancelNext {
				// The threshold (armed by SetCancel or SetDeadline, re-armed
				// here) is compared with >=, so the probe cannot be skipped
				// even if an instruction path ever advances Instructions by
				// more than one.
				m.cancelNext = m.metrics.Instructions + cancelCheckInterval
				if err := m.probe(); err != nil {
					return fmt.Errorf("%w: %v", ErrCanceled, err)
				}
			}
			if m.cancelNext < stop {
				stop = m.cancelNext
			}
		}
		for n := stop - m.metrics.Instructions; n > 0 && !m.halted; n-- {
			pc := m.pc
			if pc >= ncode {
				return fmt.Errorf("%s at pc %06x: %w", m.prog.ProcName(pc), pc,
					isa.ErrPCRange(int(pc), int(ncode)))
			}
			in := &insts[pc]
			if !in.Valid() {
				return fmt.Errorf("%s at pc %06x: %w", m.prog.ProcName(pc), pc,
					in.Err(m.code, int(pc)))
			}
			m.pc = pc + uint32(in.Size)
			m.metrics.Instructions++
			m.cycles += CycDispatch
			if err := handlers[in.Op](m, in); err != nil {
				return fmt.Errorf("%s at pc %06x: %w", m.prog.ProcName(m.pc), m.pc, err)
			}
		}
	}
	return nil
}

// probe reports why the run must stop, if it must: the cancel hook's
// error, else context.DeadlineExceeded once the deadline has passed.
func (m *Machine) probe() error {
	if m.cancel != nil {
		if err := m.cancel.Err(); err != nil {
			return err
		}
	}
	if !m.deadline.IsZero() && !time.Now().Before(m.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Halted reports whether the machine has stopped.
func (m *Machine) Halted() bool { return m.halted }

// Results returns the current argument record (the evaluation stack) —
// meaningful after a halt.
func (m *Machine) Results() []mem.Word {
	return append([]mem.Word(nil), m.stack[:m.sp]...)
}

// Entry returns the program's start descriptor.
func (m *Machine) Entry() mem.Word { return m.prog.Entry }
