package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/frames"
	"repro/internal/ifu"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/regbank"
)

// EvalStackDepth is the evaluation-stack capacity in words — an alias of
// the architectural constant isa.EvalStackDepth (the verifier and the
// engine must agree on it, and the verifier cannot import core).
const EvalStackDepth = isa.EvalStackDepth

// Config selects which of the paper's optimizations are active.
type Config struct {
	// ReturnStackDepth is the IFU return stack size (§6); 0 disables it —
	// every call and return takes the general §5 path.
	ReturnStackDepth int
	// RegBanks is the number of register banks (§7.1); 0 disables banking.
	RegBanks int
	// BankWords is the bank size in words (default 16).
	BankWords int
	// FreeFrameStack is the capacity of the processor's stack of
	// standard-size free frames (§7.1); 0 disables it.
	FreeFrameStack int
	// StdFrameWords is the standard frame size for the free-frame stack
	// (default 40 words = 80 bytes, the paper's "95% of all frames" bound).
	StdFrameWords int
	// HeapCheck enables the frame heap's shadow invariant checking.
	HeapCheck bool
	// MaxSteps bounds a run (default 200M instructions).
	MaxSteps uint64
	// Trap, when set, handles TRAPB and runtime traps; returning an error
	// halts the machine. When nil any trap is fatal.
	Trap func(m *Machine, code int) error
}

// Named configurations matching the paper's implementations. (I1, the
// straightforward scheme, is the reference interpreter in internal/interp.)
var (
	// ConfigMesa is I2: the space-optimized encoding with no speed
	// hardware — all state in main storage.
	ConfigMesa = Config{}
	// ConfigFastFetch is I3: ConfigMesa plus an 8-entry IFU return stack;
	// combined with DIRECTCALL linkage, instruction fetching proceeds as
	// for an unconditional branch.
	ConfigFastFetch = Config{ReturnStackDepth: 8}
	// ConfigFastCalls is I4: I3 plus 8 register banks of 16 words and a
	// free-frame stack, making argument passing and frame allocation free
	// in the common case.
	ConfigFastCalls = Config{ReturnStackDepth: 8, RegBanks: 8, BankWords: 16, FreeFrameStack: 8}
)

// Errors.
var (
	ErrHalted     = errors.New("core: machine halted")
	ErrMaxSteps   = errors.New("core: step limit exceeded")
	ErrCanceled   = errors.New("core: run canceled")
	ErrStack      = errors.New("core: evaluation stack overflow or underflow")
	ErrBadContext = errors.New("core: XFER to invalid context")
	ErrTrap       = errors.New("core: unhandled trap")
	ErrNotBooted  = errors.New("core: machine not booted")
)

// Trap codes raised by the machine itself.
const (
	TrapDivZero = 128 + iota
	TrapAlloc
	TrapBadContext
	TrapStack
)

// Machine is the simulated processor. All of its state is cheap per-run
// state over a shared immutable LoadedImage: the store boots by snapshot
// memcpy, and Reset restores the boot state without re-linking or
// re-loading. A Machine is not safe for concurrent use; run many machines
// over one LoadedImage (or use the façade's Pool) to serve in parallel.
type Machine struct {
	cfg  Config
	img  *LoadedImage
	prog *image.Program
	m    *mem.Memory
	heap *frames.Heap
	code []byte
	// insts is the image's shared predecoded instruction stream, indexed
	// by byte pc — the decode-once engine's read-only dispatch input.
	insts []isa.Inst

	// Processor registers.
	pc        uint32 // absolute code byte address
	lf        mem.Addr
	gf        mem.Addr
	codeBase  uint32
	cbValid   bool
	retCtx    mem.Word // the returnContext global
	stack     [EvalStackDepth]mem.Word
	sp        int
	curFSI    int16 // current frame's size class; -1 unknown
	curRet    bool  // current frame is retained (valid when curFSI >= 0)
	stackBank int   // bank holding the evaluation stack, -1 when none

	rs    *ifu.Stack
	banks *regbank.File
	// frameBank is the bank that shadowed lf when control last entered a
	// frame, nil when none. A bank's Owner names the one frame it shadows,
	// and the local-variable handlers use frameBank only while its Owner
	// is still lf: after LAB, FREE, a fallback or an eviction takes the
	// bank away it is stale but harmless, and the handlers scan instead.
	frameBank *regbank.Bank

	// trapCtx is the in-machine trap handler context (set by STRAP). A
	// trap transfers to it exactly like a call with [code] as the
	// argument record; the handler's RETURN resumes the trapping context
	// with the handler's results on the stack (§3's uniform treatment of
	// traps). When zero, traps go to the Go-level Config.Trap handler.
	trapCtx mem.Word
	// trapSaves holds the trapping contexts' partial evaluation stacks —
	// a trap can strike mid-expression, and the machine (like Mesa's
	// state-vector save) preserves the operands below the trap and
	// restores them beneath the handler's results on resumption. The
	// saved operands are stacked in trapWords, which Reset truncates and
	// keeps, so a trap costs no allocation once the storage has grown.
	trapSaves []trapSave
	trapWords []mem.Word

	// Free-frame stack (§7.1): processor-held standard-size frames.
	freeFrames []mem.Addr
	stdFSI     int // size class of the standard frame; -1 when disabled

	halted  bool
	cycles  uint64 // non-memory cycles; memory cycles derive from reference counts
	metrics Metrics

	// Per-run execution bounds (a serving layer's request budget and
	// deadline). runBudget bounds the next Run's step count below the
	// machine-global Config.MaxSteps. cancel and deadline, when set, are
	// probed every cancelCheckInterval instructions, the next probe due
	// when Instructions reaches cancelNext. All are cleared by Reset.
	runBudget  uint64
	cancel     interface{ Err() error }
	deadline   time.Time
	cancelNext uint64

	// per-transfer cost snapshots (set before each transfer opcode)
	snapRefs uint64
	snapCyc  uint64

	// Output is the machine's output record (the OUT instruction).
	Output []mem.Word

	// idle marks a machine at rest in a pool's caches (MarkIdle). It sits
	// last, away from the fields a run touches.
	idle atomic.Bool
}

// MarkIdle marks m free for the next ClaimIdle. A pool that can reach a
// machine from two caches marks each machine it caches, after Reset. It
// is a function of this internal package, not a method, so no caller
// outside the module can mark a machine it holds.
func MarkIdle(m *Machine) { m.idle.Store(true) }

// ClaimIdle takes an idle machine for the caller and reports whether it
// did: the first claim after a MarkIdle wins, so a machine reachable from
// two caches is handed to one caller only.
func ClaimIdle(m *Machine) bool { return m.idle.CompareAndSwap(true, false) }

// New creates a machine for prog with the given configuration: it loads a
// private image and boots one machine over it. To share the loaded image
// across machines, use LoadImage and LoadedImage.NewMachine directly.
func New(prog *image.Program, cfg Config) (*Machine, error) {
	img, err := LoadImage(prog, cfg)
	if err != nil {
		return nil, err
	}
	return img.NewMachine()
}

// Image returns the shared immutable image this machine boots from.
func (m *Machine) Image() *LoadedImage { return m.img }

// Reset restores the machine to its boot state — the instant its image's
// snapshot was taken — without re-compiling, re-linking or re-loading.
// Only the store's dirty window is restored: boot words are copied back
// where it overlaps the image's boot window, and the rest of it is
// zeroed. So a reset after a short run is far cheaper than booting a fresh
// machine, and after a run that wrote no data word it touches nothing. Every image takes this one path:
// the allocator registers are restored unconditionally. Metrics, output
// and all processor registers are cleared; Metrics is emptied in place,
// keeping its histograms' storage.
func (m *Machine) Reset() {
	m.m.RestoreFrom(m.img.boot)
	m.heap.Restore(m.img.heapBoot)
	m.freeFrames = append(m.freeFrames[:0], m.img.bootFree...)
	m.rs.Reset()
	m.banks.Reset()
	m.pc = 0
	m.lf, m.gf = 0, 0
	m.codeBase, m.cbValid = 0, false
	m.retCtx = 0
	m.stack = [EvalStackDepth]mem.Word{}
	m.sp = 0
	m.curFSI, m.curRet = -1, false
	m.stackBank = -1
	m.trapCtx = 0
	m.trapSaves, m.trapWords = m.trapSaves[:0], m.trapWords[:0]
	m.halted = false
	m.cycles = 0
	m.metrics.reset()
	m.snapRefs, m.snapCyc = 0, 0
	m.runBudget = 0
	m.cancel = nil
	m.deadline = time.Time{}
	m.cancelNext = 0
	m.Output = nil
}

// Release hands the machine's store on to the next boot: it zeroes the
// store over the image's boot window and its own dirty window (mem's
// Unload) and puts it among the scratch stores NewMachine and LoadImage
// boot in. The machine has no store afterwards and must not be used
// again. It lets go of its image too, so a stale reference to it (a
// pool's sync.Pool entry) does not keep the image alive.
func (m *Machine) Release() {
	m.m.Unload(m.img.boot)
	scratchStores.Put(m.m)
	m.m, m.heap = nil, nil
	m.img, m.prog, m.code, m.insts = nil, nil, nil, nil
}

// SetRunBudget bounds the next Run (or Call) to at most steps executed
// instructions, independent of the machine-global Config.MaxSteps — the
// per-request budget a serving layer needs. The global limit still
// applies; the effective bound is the smaller of the two. 0 removes the
// override. Reset clears it, so a pooled machine never carries one run's
// budget into the next request.
func (m *Machine) SetRunBudget(steps uint64) { m.runBudget = steps }

// RunBudget reports the current per-run budget override (0 = none).
func (m *Machine) RunBudget() uint64 { return m.runBudget }

// SetCancel installs the run's cancel hook: any value with an Err method,
// such as a request's context.Context, which the hook holds as it is, so
// installing one allocates nothing. Run calls Err every
// cancelCheckInterval executed instructions, the first call due
// immediately — arming mid-computation never waits for an aligned
// instruction count. When Err returns a non-nil error, Run stops with
// that error wrapped in ErrCanceled; the machine stays in a consistent
// state and Reset returns it to boot as usual. A nil hook (the default)
// costs nothing on the step path. Reset clears it.
func (m *Machine) SetCancel(c interface{ Err() error }) {
	m.cancel = c
	m.cancelNext = m.metrics.Instructions
}

// SetDeadline bounds the run in wall-clock time: the cancel probe, due
// immediately and then every cancelCheckInterval instructions, stops Run
// with ErrCanceled wrapping context.DeadlineExceeded once the deadline
// has passed — a request deadline that arms no timer. It is checked after
// the cancel hook. The zero time (the default) sets no deadline. Reset
// clears it.
func (m *Machine) SetDeadline(t time.Time) {
	m.deadline = t
	m.cancelNext = m.metrics.Instructions
}

// refs reports total charged references so far: every data-space
// reference plus the non-prefetchable code-space reads.
func (m *Machine) refs() uint64 {
	return m.m.Stats().Refs() + m.metrics.CodeReads
}

// Metrics returns a copy of the accumulated counters. Total cycles are
// the non-memory cycles plus CycMemRef per charged reference. The copy is
// detached from the machine: further runs, or a pooled machine's Reset
// and reuse, cannot retroactively mutate metrics already handed out.
func (m *Machine) Metrics() *Metrics {
	m.finishMetrics()
	return m.metrics.Clone()
}

// MergeMetricsInto folds the accumulated counters into agg — what
// Metrics().Merge would add — without copying them: a pool merges each
// run into its aggregate this way before Reset empties the machine's
// counters in place.
func (m *Machine) MergeMetricsInto(agg *Metrics) {
	m.finishMetrics()
	agg.Merge(&m.metrics)
}

// Counts reports the executed instructions, total cycles and charged
// references so far — the three counters Metrics().Instructions, .Cycles
// and .ChargedRefs would read — without copying Metrics.
func (m *Machine) Counts() (steps, cycles, refs uint64) {
	m.finishMetrics()
	return m.metrics.Instructions, m.metrics.Cycles, m.metrics.ChargedRefs
}

// finishMetrics derives the totals that are not kept live during a run.
func (m *Machine) finishMetrics() {
	m.metrics.ChargedRefs = m.refs()
	m.metrics.Cycles = m.cycles + CycMemRef*m.metrics.ChargedRefs
}

// snapshot marks the start of a transfer for per-kind cost accounting.
func (m *Machine) snapshot() {
	m.snapRefs = m.refs()
	m.snapCyc = m.cycles
}

// recordTransfer attributes the cost since the last snapshot to kind. A
// call or return that needed no references and only the standard refill is
// indistinguishable from an unconditional jump — the headline statistic.
func (m *Machine) recordTransfer(kind TransferKind) {
	refs := m.refs() - m.snapRefs
	cyc := (m.cycles - m.snapCyc) + CycMemRef*refs + CycDispatch
	if kind != KindXfer && cyc == JumpCycles {
		m.metrics.FastTransfers++
	}
	m.metrics.RefsPer[kind].Observe(int(refs))
	m.metrics.CyclesPer[kind].Observe(int(cyc))
}

// Mem exposes the store for tests and trap handlers.
func (m *Machine) Mem() *mem.Memory { return m.m }

// Heap exposes the frame allocator for inspection.
func (m *Machine) Heap() *frames.Heap { return m.heap }

// Program returns the loaded program.
func (m *Machine) Program() *image.Program { return m.prog }

// PC reports the current program counter (diagnostics).
func (m *Machine) PC() uint32 { return m.pc }

// SP reports the evaluation-stack depth (diagnostics and trap handlers).
func (m *Machine) SP() int { return m.sp }

// charged data reference helpers: every use costs CycMemRef (accounted in
// Metrics from the store's counters).

func (m *Machine) read(a mem.Addr) mem.Word { return m.m.Read(a) }

func (m *Machine) write(a mem.Addr, v mem.Word) { m.m.Write(a, v) }

// codeRead8 / codeRead16 are charged code-space reads: entry-vector and
// frame-size fetches on the general call path, which the IFU cannot
// prefetch.
func (m *Machine) codeRead8(a uint32) (byte, error) {
	if int(a) >= len(m.code) {
		return 0, fmt.Errorf("core: code read at %06x outside %d bytes", a, len(m.code))
	}
	m.metrics.CodeReads++
	return m.code[a], nil
}

func (m *Machine) codeRead16(a uint32) (uint16, error) {
	if int(a)+1 >= len(m.code) {
		return 0, fmt.Errorf("core: code read at %06x outside %d bytes", a, len(m.code))
	}
	m.metrics.CodeReads++
	return uint16(m.code[a]) | uint16(m.code[a+1])<<8, nil
}

// codePeek reads code the IFU has prefetched (DIRECTCALL headers): free.
func (m *Machine) codePeek8(a uint32) (byte, error) {
	if int(a) >= len(m.code) {
		return 0, fmt.Errorf("core: code read at %06x outside %d bytes", a, len(m.code))
	}
	return m.code[a], nil
}

func (m *Machine) codePeek16(a uint32) (uint16, error) {
	if int(a)+1 >= len(m.code) {
		return 0, fmt.Errorf("core: code read at %06x outside %d bytes", a, len(m.code))
	}
	return uint16(m.code[a]) | uint16(m.code[a+1])<<8, nil
}

// frameLoad reads word off of frame lf through the bank file when the
// frame is shadowed (free) and from storage otherwise (charged).
func (m *Machine) frameLoad(lf mem.Addr, off int) mem.Word {
	if b := m.bankOf(lf); b >= 0 && off < m.cfg.BankWords {
		m.metrics.BankHits++
		return m.banks.Read(b, off)
	}
	if m.cfg.RegBanks > 0 {
		m.metrics.BankMisses++
	}
	return m.read(lf + mem.Addr(off))
}

// frameStore writes word off of frame lf (bank or storage).
func (m *Machine) frameStore(lf mem.Addr, off int, v mem.Word) {
	if b := m.bankOf(lf); b >= 0 && off < m.cfg.BankWords {
		m.metrics.BankHits++
		m.banks.Write(b, off, v)
		return
	}
	if m.cfg.RegBanks > 0 {
		m.metrics.BankMisses++
	}
	m.write(lf+mem.Addr(off), v)
}

func (m *Machine) bankOf(lf mem.Addr) int {
	if m.cfg.RegBanks == 0 {
		return -1
	}
	return m.banks.Lookup(lf)
}

// shadowFrame returns the bank shadowing frame lf, reloading one from
// storage when none does (§7.1 underflow); nil when banking is off or no
// bank can be had.
func (m *Machine) shadowFrame(lf mem.Addr) *regbank.Bank {
	if m.cfg.RegBanks == 0 {
		return nil
	}
	b := m.banks.Lookup(uint16(lf))
	if b < 0 {
		if b = m.reloadBank(lf); b < 0 {
			return nil
		}
	}
	return m.banks.Get(b)
}

// flushBank writes a bank's dirty words to its frame (charged) — the §7.1
// overflow path and the §7.4 pointer fallback.
func (m *Machine) flushBank(b *regbank.Bank) {
	lf := mem.Addr(b.Owner)
	for i := 0; i < len(b.Words); i++ {
		if b.Dirty&(1<<uint(i)) != 0 {
			m.write(lf+mem.Addr(i), b.Words[i])
			m.metrics.BankFlushWords++
		}
	}
}

// acquireBank gets a bank for owner, flushing the oldest bank in place
// first if every bank is taken.
func (m *Machine) acquireBank(owner int32) int {
	b := m.banks.Pick()
	if b < 0 {
		return -1
	}
	if victim := m.banks.Get(b); victim.Owner >= 0 {
		m.metrics.BankOverflows++
		m.flushBank(victim)
	}
	m.banks.Assign(b, owner)
	return b
}

// reloadBank assigns a bank for frame lf and reads the frame's first words
// straight into it (§7.1 underflow); the reloaded words are clean.
func (m *Machine) reloadBank(lf mem.Addr) int {
	b := m.acquireBank(int32(lf))
	if b < 0 {
		return -1
	}
	m.metrics.BankUnderflows++
	words := m.banks.Get(b).Words
	for i := range words {
		words[i] = m.read(lf + mem.Addr(i))
		m.metrics.BankReloadWords++
	}
	return b
}

// fallback flushes the return stack and all banks into storage — the
// orderly retreat to the general scheme (§6, §7.1) used by general XFERs
// and process switches.
func (m *Machine) fallback() error {
	for _, e := range m.rs.Flush() {
		m.metrics.RSFlushed++
		if err := m.flushRSEntry(e); err != nil {
			return err
		}
	}
	for i := 0; i < m.banks.NumBanks(); i++ {
		if b := m.banks.Get(i); b.Owner >= 0 {
			m.flushBank(b)
		}
	}
	m.banks.ReleaseAll()
	m.stackBank = -1
	return nil
}

// flushRSEntry writes a suspended caller's PC into its frame: "the PC goes
// into the PC component of LF"; the return link and global frame were
// stored at call time, and the global frame pointer can be discarded.
func (m *Machine) flushRSEntry(e ifu.Entry) error {
	cb, err := m.loadCodeBase(mem.Addr(e.GF))
	if err != nil {
		return err
	}
	m.frameStore(mem.Addr(e.LF), 2, mem.Word(e.PC-cb))
	return nil
}

// loadCodeBase reads a module's code base from its global frame (two
// charged references).
func (m *Machine) loadCodeBase(gf mem.Addr) (uint32, error) {
	lo := m.read(gf)
	hi := m.read(gf + 1)
	return uint32(lo) | uint32(hi)<<16, nil
}

// ensureCodeBase makes the code-base register valid for the running
// context (lazy after DIRECTCALLs).
func (m *Machine) ensureCodeBase() error {
	if m.cbValid {
		return nil
	}
	cb, err := m.loadCodeBase(m.gf)
	if err != nil {
		return err
	}
	m.codeBase = cb
	m.cbValid = true
	return nil
}

// allocFrame allocates a frame of class fsi, using the free-frame stack
// for standard-size requests when enabled. It returns the frame and the
// class it actually is. A class past the size table, read where a bad
// descriptor points, goes to the allocator, which refuses it.
func (m *Machine) allocFrame(fsi int) (mem.Addr, int16, error) {
	if m.stdFSI >= 0 && fsi < m.heap.Classes() && m.heap.SizeOf(fsi) <= m.heap.SizeOf(m.stdFSI) {
		if n := len(m.freeFrames); n > 0 {
			lf := m.freeFrames[n-1]
			m.freeFrames = m.freeFrames[:n-1]
			m.metrics.FFHits++
			return lf, int16(m.stdFSI), nil
		}
		m.metrics.FFMisses++
		lf, err := m.heap.Alloc(m.stdFSI)
		return lf, int16(m.stdFSI), err
	}
	lf, err := m.heap.Alloc(fsi)
	return lf, int16(fsi), err
}

// freeFrame releases the frame with known class fsi (-1: read the header).
func (m *Machine) freeFrame(lf mem.Addr, fsi int16, retained bool) error {
	if fsi < 0 {
		hdr := m.read(lf - frames.Overhead)
		m.metrics.HeaderReads++
		fsi = int16(hdr & 0xff)
		retained = hdr&frames.FlagRetained != 0
	}
	if retained {
		return nil // the owner frees it explicitly (§4)
	}
	if b := m.bankOf(lf); b >= 0 {
		m.banks.Release(b) // contents unimportant, never written back
	}
	if m.stdFSI >= 0 && int(fsi) == m.stdFSI && len(m.freeFrames) < m.cfg.FreeFrameStack {
		m.freeFrames = append(m.freeFrames, lf)
		m.metrics.FFPushes++
		return nil
	}
	return m.heap.FreeKnown(lf, int(fsi))
}

// The evaluation-stack faults, built once so push and pop stay under Go's
// inlining budget. A push can fault only at depth EvalStackDepth: Start,
// Restore and restoreTrapSave keep sp <= EvalStackDepth, and every other
// write sets sp to 0 or goes through push and pop.
var (
	errPushFull = fmt.Errorf("%w: push at depth %d", ErrStack, EvalStackDepth)
	errPopEmpty = fmt.Errorf("%w: pop of empty stack", ErrStack)
)

// push/pop on the evaluation stack (processor registers: free). One
// unsigned compare covers both ends of the stack, and lets the compiler
// drop its own bounds check on m.stack[i].

func (m *Machine) push(v mem.Word) error {
	i := m.sp
	if uint(i) >= EvalStackDepth {
		return errPushFull
	}
	m.stack[i] = v
	m.sp = i + 1
	return nil
}

func (m *Machine) pop() (mem.Word, error) {
	i := m.sp - 1
	if uint(i) >= EvalStackDepth {
		return 0, errPopEmpty
	}
	m.sp = i
	return m.stack[i], nil
}

type trapSave struct {
	calleeLF mem.Addr // the handler frame whose return restores the save
	base     int      // the trapper's stack below the trap point is trapWords[base:]
}

// trap routes a trap code: to the in-machine handler context when one is
// installed (an XFER like any other — the handler's return resumes the
// trapper, its results landing where the trapping operation's result
// would), otherwise to the Go-level handler, otherwise the machine fails.
// The boolean reports whether an in-machine transfer took place (the
// trapping instruction must then not push its own result).
func (m *Machine) trapXfer(code int) (bool, error) {
	if m.trapCtx != 0 {
		// Preserve the trapper's partial evaluation stack; the handler
		// receives only the trap code. A failed transfer records no save.
		base := len(m.trapWords)
		m.trapWords = append(m.trapWords, m.stack[:m.sp]...)
		if err := m.enterTrapHandler(code); err != nil {
			m.trapWords = m.trapWords[:base]
			return false, err
		}
		m.trapSaves = append(m.trapSaves, trapSave{calleeLF: m.lf, base: base})
		return true, nil
	}
	return false, m.trap(code)
}

// enterTrapHandler transfers to the in-machine handler with [code] as the
// argument record.
func (m *Machine) enterTrapHandler(code int) error {
	m.sp = 0
	if err := m.push(mem.Word(code)); err != nil {
		return err
	}
	m.snapshot()
	if !image.IsProc(m.trapCtx) {
		return fmt.Errorf("%w: trap handler %04x is not a procedure", ErrBadContext, m.trapCtx)
	}
	gf, cb, entry, fsi, err := m.resolveProc(m.trapCtx)
	if err != nil {
		return err
	}
	return m.enterProc(gf, cb, true, entry, fsi, KindXfer)
}

// restoreTrapSave reinstates a trapper's saved operands beneath the
// handler's results, when the frame just retired was a trap handler.
func (m *Machine) restoreTrapSave(retired mem.Addr) error {
	n := len(m.trapSaves)
	if n == 0 || m.trapSaves[n-1].calleeLF != retired {
		return nil
	}
	base := m.trapSaves[n-1].base
	words := m.trapWords[base:]
	m.trapSaves = m.trapSaves[:n-1]
	m.trapWords = m.trapWords[:base]
	if len(words)+m.sp > EvalStackDepth {
		return fmt.Errorf("%w: trap restore overflows", ErrStack)
	}
	// Move the results up (copy handles the overlap), then put the saved
	// operands beneath them.
	copy(m.stack[len(words):], m.stack[:m.sp])
	copy(m.stack[:], words)
	m.sp += len(words)
	return nil
}

// trap routes a trap code to the configured Go handler or fails.
func (m *Machine) trap(code int) error {
	if m.cfg.Trap != nil {
		return m.cfg.Trap(m, code)
	}
	return fmt.Errorf("%w: code %d at pc %06x (%s)", ErrTrap, code, m.pc, m.prog.ProcName(m.pc))
}
