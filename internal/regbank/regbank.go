// Package regbank models the register banks of §7: a small number of banks
// (4–8) of modest fixed size (~16 words), each able to shadow the first
// words of a local frame. One additional role rotates among the banks: the
// evaluation stack. On a call the bank holding the stack is renamed to be
// the shadower of the callee's frame, so the arguments appear as the first
// locals with no data movement (§7.2, Figure 3); a fresh bank becomes the
// stack.
//
// The package is pure bookkeeping — the machine moves the actual words and
// charges memory references on flush and reload, keeping the cost model in
// one place.
package regbank

// Owner values for banks not shadowing a frame.
const (
	OwnerFree  = -1
	OwnerStack = -2
)

// Bank is one register bank.
type Bank struct {
	Words []uint16
	Dirty uint64 // bit i set: word i written since assignment/reload
	Owner int32  // frame pointer, OwnerFree, or OwnerStack
	age   uint64
}

// File is the set of banks.
type File struct {
	banks []Bank
	clock uint64
}

// New returns a file of n banks of the given word size. n=0 disables
// banking (every lookup misses).
func New(n, words int) *File {
	if words > 64 {
		panic("regbank: banks larger than 64 words not supported (dirty mask)")
	}
	f := &File{banks: make([]Bank, n)}
	for i := range f.banks {
		f.banks[i] = Bank{Words: make([]uint16, words), Owner: OwnerFree}
	}
	return f
}

// NumBanks reports the number of banks.
func (f *File) NumBanks() int { return len(f.banks) }

// BankWords reports the words per bank (0 when disabled).
func (f *File) BankWords() int {
	if len(f.banks) == 0 {
		return 0
	}
	return len(f.banks[0].Words)
}

// Get returns bank i.
func (f *File) Get(i int) *Bank { return &f.banks[i] }

// Lookup finds the bank shadowing frame lf, or -1.
func (f *File) Lookup(lf uint16) int {
	for i := range f.banks {
		if f.banks[i].Owner == int32(lf) {
			return i
		}
	}
	return -1
}

// StackBank returns the bank currently holding the evaluation stack, or -1.
func (f *File) StackBank() int {
	for i := range f.banks {
		if f.banks[i].Owner == OwnerStack {
			return i
		}
	}
	return -1
}

// Pick chooses the bank for a new owner without assigning it. It prefers a
// free bank; if none is free it chooses the oldest frame-owning bank as
// the victim, whose dirty words the machine must write to its frame in
// place before Assign clears them (§7.1: "the contents of the oldest bank
// is written out into the frame"). The stack bank is never chosen as a
// victim. Returns -1 if banking is disabled or every bank is the stack.
func (f *File) Pick() int {
	for i := range f.banks {
		if f.banks[i].Owner == OwnerFree {
			return i
		}
	}
	oldest := -1
	for i := range f.banks {
		if f.banks[i].Owner == OwnerStack {
			continue
		}
		if oldest == -1 || f.banks[i].age < f.banks[oldest].age {
			oldest = i
		}
	}
	return oldest
}

// Assign gives bank i to owner: zeroed, clean and the most recently used.
func (f *File) Assign(i int, owner int32) {
	f.clock++
	b := &f.banks[i]
	b.Owner = owner
	b.Dirty = 0
	b.age = f.clock
	for j := range b.Words {
		b.Words[j] = 0
	}
}

// Acquire picks and assigns a bank for owner in one step, reporting
// whether a frame-owning bank was evicted. It suits callers that model
// only the assignment (trace replay, Figure 3); a caller that keeps frame
// contents must flush the victim between Pick and Assign.
func (f *File) Acquire(owner int32) (bank int, evicted bool) {
	bank = f.Pick()
	if bank < 0 {
		return -1, false
	}
	evicted = f.banks[bank].Owner >= 0
	f.Assign(bank, owner)
	return bank, evicted
}

// Rename transfers bank i to a new owner without touching its contents —
// the §7.2 free argument passing. The dirty mask is preserved: the words
// written while the bank was the stack must reach the new frame if it is
// ever flushed.
func (f *File) Rename(i int, owner int32) {
	f.clock++
	f.banks[i].Owner = owner
	f.banks[i].age = f.clock
}

// Touch refreshes bank i's age (it shadows the running frame).
func (f *File) Touch(i int) {
	f.clock++
	f.banks[i].age = f.clock
}

// Release frees bank i; its contents are unimportant and never need to be
// saved (§7.1: a freed frame's bank is simply marked free).
func (f *File) Release(i int) {
	f.banks[i].Owner = OwnerFree
	f.banks[i].Dirty = 0
}

// Read returns word off of bank i.
func (f *File) Read(i, off int) uint16 { return f.banks[i].Words[off] }

// Write sets word off of bank i and marks it dirty.
func (f *File) Write(i, off int, v uint16) { f.banks[i].Write(off, v) }

// Write sets word off of the bank and marks it dirty.
func (b *Bank) Write(off int, v uint16) {
	b.Words[off] = v
	b.Dirty |= 1 << uint(off)
}

// Reset returns every bank to its power-on state: free, clean, zeroed.
// Used when a machine is rebooted from its image snapshot; unlike
// ReleaseAll no bank needs flushing first, because the store is being
// restored wholesale.
func (f *File) Reset() {
	f.clock = 0
	for i := range f.banks {
		b := &f.banks[i]
		b.Owner = OwnerFree
		b.Dirty = 0
		b.age = 0
		for j := range b.Words {
			b.Words[j] = 0
		}
	}
}

// BankState is one bank's captured state — contents, dirty mask, owner and
// the age that drives victim selection.
type BankState struct {
	Words []uint16
	Dirty uint64
	Owner int32
	Age   uint64
}

// State is a deep copy of the whole file: every bank plus the clock. A
// machine snapshot captures it raw — flushing instead would charge memory
// references the uninterrupted run never pays — and restoring it (ages and
// clock included) makes the resumed machine evict exactly the banks the
// uninterrupted run would have.
type State struct {
	Banks []BankState
	Clock uint64
}

// State captures the file (deep copy).
func (f *File) State() State {
	s := State{Clock: f.clock}
	if len(f.banks) > 0 {
		s.Banks = make([]BankState, len(f.banks))
		for i := range f.banks {
			b := &f.banks[i]
			s.Banks[i] = BankState{
				Words: append([]uint16(nil), b.Words...),
				Dirty: b.Dirty,
				Owner: b.Owner,
				Age:   b.age,
			}
		}
	}
	return s
}

// Restore puts the file back to s (deep copy). The capture must come from a
// file of the same shape — same bank count and words per bank; a mismatch
// is an invariant violation (the caller compares configurations first).
func (f *File) Restore(s State) {
	if len(s.Banks) != len(f.banks) {
		panic("regbank: Restore with mismatched bank count")
	}
	f.clock = s.Clock
	for i := range f.banks {
		b := &f.banks[i]
		if len(s.Banks[i].Words) != len(b.Words) {
			panic("regbank: Restore with mismatched bank size")
		}
		copy(b.Words, s.Banks[i].Words)
		b.Dirty = s.Banks[i].Dirty
		b.Owner = s.Banks[i].Owner
		b.age = s.Banks[i].Age
	}
}

// ReleaseAll frees every bank (process switch / trap fallback: "all the
// banks are flushed into storage"). The machine flushes the frame-owned
// banks in place first.
func (f *File) ReleaseAll() {
	for i := range f.banks {
		f.banks[i].Owner = OwnerFree
		f.banks[i].Dirty = 0
	}
}
