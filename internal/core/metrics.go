package core

import "repro/internal/stats"

// TransferKind classifies control transfers for per-kind accounting.
type TransferKind int

// Transfer kinds.
const (
	KindExternalCall TransferKind = iota
	KindLocalCall
	KindDirectCall // DCALL and SDCALL
	KindReturn
	KindXfer // general XFER (coroutine transfers and the like)
	numKinds
)

// String names the kind.
func (k TransferKind) String() string {
	switch k {
	case KindExternalCall:
		return "external-call"
	case KindLocalCall:
		return "local-call"
	case KindDirectCall:
		return "direct-call"
	case KindReturn:
		return "return"
	case KindXfer:
		return "xfer"
	}
	return "?"
}

// Metrics is everything the experiments read out of a run.
type Metrics struct {
	Instructions uint64
	Cycles       uint64
	// ChargedRefs counts all references charged at CycMemRef: data space
	// plus non-prefetchable code-space reads.
	ChargedRefs uint64
	CodeReads   uint64 // the code-space share of ChargedRefs

	// Transfer counts by kind.
	Transfers [numKinds]uint64
	Creates   uint64 // COCREATE executions

	// RefsPer and CyclesPer record the per-transfer cost distribution for
	// each kind — E1's table comes straight from these.
	RefsPer   [numKinds]stats.Histogram
	CyclesPer [numKinds]stats.Histogram

	// FastTransfers counts calls+returns that cost exactly JumpCycles —
	// the paper's headline statistic.
	FastTransfers uint64

	// Return stack (§6).
	RSHits    uint64 // returns served by the return stack
	RSMisses  uint64 // returns that took the general path
	RSEvicted uint64 // entries flushed because the stack overflowed
	RSFlushed uint64 // entries flushed by a general XFER fallback

	// Register banks (§7.1–7.2).
	BankHits        uint64 // frame-word accesses served by a bank
	BankMisses      uint64 // frame-word accesses that went to storage
	BankRenames     uint64 // stack bank renamed to callee frame (free args)
	BankOverflows   uint64 // a bank acquisition had to flush the oldest bank
	BankUnderflows  uint64 // an XFER-in found no shadowing bank and reloaded
	BankFlushWords  uint64 // dirty words written out on overflow/fallback
	BankReloadWords uint64 // words read back on underflow
	PointerFlushes  uint64 // LAB forced a bank flush (§7.4 C2)

	// Free-frame stack (§7.1 fast allocation).
	FFHits   uint64 // allocations served by the processor's free-frame stack
	FFMisses uint64 // standard-size allocations that fell back to the heap
	FFPushes uint64 // frees captured by the stack

	// Argument passing (§5.2 vs §7.2).
	ArgWordsMoved uint64 // words stored into frames to deliver arguments

	HeaderReads uint64 // lazy frame-header reads on general-path returns

	// Program-level data references by category (instruction counts,
	// independent of whether a bank absorbed them) — §7.3's locality
	// argument.
	LocalVarRefs  uint64 // LL*/SL*/LLB/SLB
	GlobalVarRefs uint64 // LG*/LGB/SGB
	PointerRefs   uint64 // LDIND/STIND/RFB/WFB
}

// Clone returns an independent deep copy of m: later machine activity (or
// a pooled machine's Reset and reuse) cannot retroactively mutate it.
func (m *Metrics) Clone() *Metrics {
	c := *m
	for k := range m.RefsPer {
		c.RefsPer[k] = m.RefsPer[k].Clone()
		c.CyclesPer[k] = m.CyclesPer[k].Clone()
	}
	return &c
}

// reset empties m in place. The histograms keep their dense storage, so
// a machine reused run after run does not reallocate it.
func (m *Metrics) reset() {
	*m = Metrics{RefsPer: m.RefsPer, CyclesPer: m.CyclesPer}
	for k := range m.RefsPer {
		m.RefsPer[k].Reset()
		m.CyclesPer[k].Reset()
	}
}

// Merge folds other into m — the aggregate accounting a machine pool keeps
// across runs. Every counter sums; the per-transfer histograms merge.
func (m *Metrics) Merge(other *Metrics) {
	m.Instructions += other.Instructions
	m.Cycles += other.Cycles
	m.ChargedRefs += other.ChargedRefs
	m.CodeReads += other.CodeReads
	for k := range m.Transfers {
		m.Transfers[k] += other.Transfers[k]
		m.RefsPer[k].Merge(&other.RefsPer[k])
		m.CyclesPer[k].Merge(&other.CyclesPer[k])
	}
	m.Creates += other.Creates
	m.FastTransfers += other.FastTransfers
	m.RSHits += other.RSHits
	m.RSMisses += other.RSMisses
	m.RSEvicted += other.RSEvicted
	m.RSFlushed += other.RSFlushed
	m.BankHits += other.BankHits
	m.BankMisses += other.BankMisses
	m.BankRenames += other.BankRenames
	m.BankOverflows += other.BankOverflows
	m.BankUnderflows += other.BankUnderflows
	m.BankFlushWords += other.BankFlushWords
	m.BankReloadWords += other.BankReloadWords
	m.PointerFlushes += other.PointerFlushes
	m.FFHits += other.FFHits
	m.FFMisses += other.FFMisses
	m.FFPushes += other.FFPushes
	m.ArgWordsMoved += other.ArgWordsMoved
	m.HeaderReads += other.HeaderReads
	m.LocalVarRefs += other.LocalVarRefs
	m.GlobalVarRefs += other.GlobalVarRefs
	m.PointerRefs += other.PointerRefs
}

// LocalShare reports the fraction of program data references that touch
// local variables (§7.3: "Half or more of all data memory references may
// be to local variables").
func (m *Metrics) LocalShare() float64 {
	total := m.LocalVarRefs + m.GlobalVarRefs + m.PointerRefs
	return stats.Ratio(m.LocalVarRefs, total)
}

// CallsAndReturns reports the denominator of the headline statistic.
func (m *Metrics) CallsAndReturns() uint64 {
	return m.Transfers[KindExternalCall] + m.Transfers[KindLocalCall] +
		m.Transfers[KindDirectCall] + m.Transfers[KindReturn]
}

// FastFraction reports the share of calls+returns that ran at jump speed.
func (m *Metrics) FastFraction() float64 {
	return stats.Ratio(m.FastTransfers, m.CallsAndReturns())
}

// RSHitRate reports the return-stack hit rate over returns.
func (m *Metrics) RSHitRate() float64 {
	return stats.Ratio(m.RSHits, m.RSHits+m.RSMisses)
}
