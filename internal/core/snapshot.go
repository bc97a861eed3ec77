package core

import (
	"errors"
	"fmt"

	"repro/internal/frames"
	"repro/internal/ifu"
	"repro/internal/mem"
	"repro/internal/regbank"
)

// First-class continuations: a suspended context reified as a value. A run
// that was cut at an instruction boundary (budget exhaustion, a cancel
// probe, or simply between Steps) can be captured with Snapshot and resumed
// with Restore on any machine booted over an image with the same content
// hash — a different pooled machine, a different process entirely — and the
// resumed execution is byte-identical to the run that was never
// interrupted: same results, same OUT stream, same halt state, and the same
// exact metrics once the per-segment accounting is merged.
//
// The capture is raw, not architectural: the IFU return stack and the
// register banks are copied as they are instead of being flushed, because a
// flush would charge memory references (RSFlushed, BankFlushWords) the
// uninterrupted run never pays — the paper's §6/§7.1 fallback is a
// process-switch mechanism, and a continuation is precisely a process
// switch that must cost nothing it can later be charged for. The memory
// capture rides the dirty-window machinery Reset already maintains: only
// the words a run actually wrote (the delta against the shared boot
// snapshot) travel with the continuation.

// ErrBadContinuation is the Restore failure for a continuation that does
// not belong on this machine: a different program image, or a machine
// configuration that would change the captured microarchitectural shape.
var ErrBadContinuation = errors.New("core: continuation does not match machine")

// ConfigKey is the comparable fingerprint of the Config fields a
// continuation's captured state depends on. Two machines with equal keys
// (over the same image) are interchangeable resume targets.
type ConfigKey struct {
	ReturnStackDepth int
	RegBanks         int
	BankWords        int
	FreeFrameStack   int
	StdFrameWords    int
	HeapCheck        bool
}

func (c Config) key() ConfigKey {
	return ConfigKey{
		ReturnStackDepth: c.ReturnStackDepth,
		RegBanks:         c.RegBanks,
		BankWords:        c.BankWords,
		FreeFrameStack:   c.FreeFrameStack,
		StdFrameWords:    c.StdFrameWords,
		HeapCheck:        c.HeapCheck,
	}
}

// TrapSave is the serializable form of a trapping context's preserved
// partial evaluation stack (see Machine.trapSaves).
type TrapSave struct {
	CalleeLF mem.Addr
	Words    []mem.Word
}

// Continuation is a suspended context as a value: everything a machine
// holds beyond the shared immutable LoadedImage, deep-copied so the source
// machine can be reset and reused (or the continuation serialized and
// parked off-machine) without aliasing. Create with Machine.Snapshot,
// resume with Machine.Restore, serialize with internal/snapshot.
type Continuation struct {
	// Hash is the content hash of the program image the context was
	// captured over; Restore accepts it only on a machine whose image has
	// the same hash. Cfg fingerprints the machine configuration the same
	// way.
	Hash string
	Cfg  ConfigKey

	// Processor registers.
	PC        uint32
	LF, GF    mem.Addr
	CodeBase  uint32
	CBValid   bool
	RetCtx    mem.Word
	Stack     []mem.Word // evaluation stack, bottom first ([0, sp))
	CurFSI    int16
	CurRet    bool
	StackBank int
	Halted    bool

	// In-machine trap state.
	TrapCtx   mem.Word
	TrapSaves []TrapSave

	// Microarchitectural state, captured raw (never flushed — a flush
	// would perturb the metrics a resumed run must reproduce exactly).
	RS         []ifu.Entry
	Banks      regbank.State
	FreeFrames []mem.Addr
	Heap       frames.State

	// Memory delta against the shared boot snapshot: the dirty window
	// [MemLo, MemLo+len(MemWords)) at capture time.
	MemLo    int
	MemWords []mem.Word

	// Metrics is the parked segment's detached accounting — everything the
	// machine had accumulated when the snapshot was taken. Restore starts
	// the target machine's counters from zero (the absolute counts do not
	// influence execution; budgets and cancel probes are relative), so a
	// caller accounting a multi-segment session merges the per-segment
	// metrics: the merge across every segment is byte-identical to an
	// uninterrupted run's metrics, and a pool that merges each segment at
	// Put time never double-counts.
	Metrics *Metrics

	// Output is the cumulative OUT stream at capture time. Restore
	// installs it, so the machine that runs the final segment carries the
	// whole stream.
	Output []mem.Word
}

// Snapshot captures the machine's suspended context as a Continuation. The
// machine must be at an instruction boundary: halted, never started, or
// paused by Run returning (budget cut, cancel, or an error that leaves the
// state consistent). The machine itself is not perturbed — no flushes, no
// charged references — and shares no mutable state with the capture: it
// can keep running, be Reset, or be recycled through a pool while the
// continuation stays valid.
func (m *Machine) Snapshot() (*Continuation, error) {
	if m.prog == nil {
		return nil, ErrNotBooted
	}
	lo, hi := m.m.DirtyRange()
	c := &Continuation{
		Hash:       m.prog.ContentHash(),
		Cfg:        m.cfg.key(),
		PC:         m.pc,
		LF:         m.lf,
		GF:         m.gf,
		CodeBase:   m.codeBase,
		CBValid:    m.cbValid,
		RetCtx:     m.retCtx,
		Stack:      append([]mem.Word(nil), m.stack[:m.sp]...),
		CurFSI:     m.curFSI,
		CurRet:     m.curRet,
		StackBank:  m.stackBank,
		Halted:     m.halted,
		TrapCtx:    m.trapCtx,
		RS:         m.rs.Entries(),
		Banks:      m.banks.State(),
		FreeFrames: append([]mem.Addr(nil), m.freeFrames...),
		Heap:       m.heap.State(),
		MemLo:      lo,
		MemWords:   m.m.PeekRange(lo, hi),
		Metrics:    m.Metrics(),
		Output:     append([]mem.Word(nil), m.Output...),
	}
	if len(m.trapSaves) > 0 {
		c.TrapSaves = make([]TrapSave, len(m.trapSaves))
		for i, ts := range m.trapSaves {
			end := len(m.trapWords)
			if i+1 < len(m.trapSaves) {
				end = m.trapSaves[i+1].base
			}
			c.TrapSaves[i] = TrapSave{
				CalleeLF: ts.calleeLF,
				Words:    append([]mem.Word(nil), m.trapWords[ts.base:end]...),
			}
		}
	}
	return c, nil
}

// Restore resumes a continuation on this machine: the machine is reset to
// boot state, the continuation's memory delta is written back over it (the
// dirty window widened to cover it, so a later Reset still restores boot
// exactly), and every register, bank, IFU entry and trap save is
// reinstated. The continuation itself is not consumed — it can be restored
// again, on this machine or another.
//
// Counters start from zero: the resumed segment's Metrics account only the
// work after resumption (merge with the continuation's Metrics for the
// whole computation), while Output is cumulative. The per-run budget,
// cancel hook and deadline are cleared like any Reset; arm them after
// Restore.
func (m *Machine) Restore(c *Continuation) error {
	if m.prog == nil {
		return ErrNotBooted
	}
	if got := m.prog.ContentHash(); got != c.Hash {
		return fmt.Errorf("%w: continuation for image %.12s…, machine runs %.12s…", ErrBadContinuation, c.Hash, got)
	}
	if key := m.cfg.key(); key != c.Cfg {
		return fmt.Errorf("%w: machine config %+v, continuation captured under %+v", ErrBadContinuation, key, c.Cfg)
	}
	if len(c.Stack) > EvalStackDepth {
		return fmt.Errorf("%w: %d stack words", ErrBadContinuation, len(c.Stack))
	}
	if c.MemLo < 0 || c.MemLo+len(c.MemWords) > mem.Size {
		return fmt.Errorf("%w: memory delta [%d,%d) outside the data space", ErrBadContinuation, c.MemLo, c.MemLo+len(c.MemWords))
	}
	m.Reset()
	m.m.WriteBack(c.MemLo, c.MemWords)
	m.heap.Restore(c.Heap)
	m.freeFrames = append(m.freeFrames[:0], c.FreeFrames...)
	m.rs.LoadEntries(c.RS)
	m.banks.Restore(c.Banks)
	m.stackBank = c.StackBank
	m.pc = c.PC
	m.lf, m.gf = c.LF, c.GF
	m.codeBase, m.cbValid = c.CodeBase, c.CBValid
	m.retCtx = c.RetCtx
	copy(m.stack[:], c.Stack)
	m.sp = len(c.Stack)
	m.curFSI, m.curRet = c.CurFSI, c.CurRet
	m.trapCtx = c.TrapCtx
	for _, ts := range c.TrapSaves {
		m.trapSaves = append(m.trapSaves, trapSave{calleeLF: ts.CalleeLF, base: len(m.trapWords)})
		m.trapWords = append(m.trapWords, ts.Words...)
	}
	m.frameBank = nil
	if b := m.bankOf(m.lf); b >= 0 {
		m.frameBank = m.banks.Get(b)
	}
	m.halted = c.Halted
	m.Output = append([]mem.Word(nil), c.Output...)
	return nil
}
