// Package mem simulates the 16-bit word-addressed main data space (MDS) of
// the Mesa-like processor, with per-reference accounting.
//
// The paper's cost arguments are counting arguments — memory references per
// call (§5.1), per frame allocation (§5.3), cache vs register cycles (§7.3) —
// so the store counts every read and write it services. The processor charges
// cycles for those references using the constants in internal/core.
//
// The same counting applies to the store itself. A boot writes a few dozen
// words, all inside one window of the 64K-word space, so a boot image is a
// Snapshot of that window alone: every word outside it is zero. Loading one
// copies the window into a zero store, and restoring one copies back only
// where the store's dirty window overlaps it and zeroes the rest of the
// dirty window. Unloading one zeroes its window and the dirty window, so a
// store outlives the image it was loaded from and boots the next one.
package mem

import "fmt"

// Word is the machine word: 16 bits, as on the Alto/Dorado Mesa machines.
type Word = uint16

// Addr is a word address within the 64K-word main data space.
type Addr = uint16

// Size is the number of words in the main data space.
const Size = 1 << 16

// Stats counts the references the store has serviced.
type Stats struct {
	Reads  uint64 // word reads
	Writes uint64 // word writes
}

// Refs reports total references (reads + writes).
func (s Stats) Refs() uint64 { return s.Reads + s.Writes }

// Snapshot is a store's contents as one window: the words
// [Lo, Lo+len(Words)), with every word outside the window zero. The zero
// Snapshot is the all-zero store.
type Snapshot struct {
	Lo    int
	Words []Word
}

// Hi is the end of the window.
func (s Snapshot) Hi() int { return s.Lo + len(s.Words) }

// Memory is a simulated main data space. The zero value is not usable;
// call New.
//
// The store tracks a dirty window — the smallest address range covering
// every word written since the last LoadFrom/RestoreFrom — so a machine
// restoring its boot snapshot touches only what a run actually wrote
// rather than all 64K words.
type Memory struct {
	words []Word
	stats Stats
	// dirty window [lo, hi); lo >= hi means clean
	lo, hi int
}

// New returns a zeroed 64K-word store.
func New() *Memory {
	return &Memory{words: make([]Word, Size), lo: Size}
}

func (m *Memory) mark(a Addr) {
	if int(a) < m.lo {
		m.lo = int(a)
	}
	if int(a) >= m.hi {
		m.hi = int(a) + 1
	}
}

// Read fetches the word at a, counting one read reference.
func (m *Memory) Read(a Addr) Word {
	m.stats.Reads++
	return m.words[a]
}

// Write stores v at a, counting one write reference.
func (m *Memory) Write(a Addr, v Word) {
	m.stats.Writes++
	m.words[a] = v
	m.mark(a)
}

// Peek reads without charging a reference (debugger/test access).
func (m *Memory) Peek(a Addr) Word { return m.words[a] }

// Poke writes without charging a reference (loader/test access). Pokes are
// tracked in the dirty window like charged writes.
func (m *Memory) Poke(a Addr, v Word) {
	m.words[a] = v
	m.mark(a)
}

// Stats returns the reference counts accumulated so far.
func (m *Memory) Stats() Stats { return m.stats }

// ResetStats zeroes the reference counts without touching contents.
func (m *Memory) ResetStats() { m.stats = Stats{} }

// Clear zeroes the whole store and the counters. The whole space is marked
// dirty: the contents no longer match any snapshot previously loaded.
func (m *Memory) Clear() {
	for i := range m.words {
		m.words[i] = 0
	}
	m.stats = Stats{}
	m.lo, m.hi = 0, Size
}

// Snapshot returns an independent copy of the dirty window. For a store
// that was zero when it was last clean — fresh from New, or restored to
// the zero Snapshot — that is its whole contents: the boot image a
// LoadedImage shares between machines.
func (m *Memory) Snapshot() Snapshot {
	if m.lo >= m.hi {
		return Snapshot{}
	}
	return Snapshot{Lo: m.lo, Words: append([]Word(nil), m.words[m.lo:m.hi]...)}
}

// LoadFrom boots a store that is zero outside its dirty window (fresh from
// New, after Clear, or restored to the zero Snapshot) with snap: it copies
// snap's window in, zeroes the rest of the dirty window, marks the store
// clean relative to snap and zeroes the counters.
func (m *Memory) LoadFrom(snap Snapshot) {
	m.markWindow(snap)
	m.RestoreFrom(snap)
}

// Unload is the inverse of LoadFrom: it zeroes the store over snap's
// window and its own dirty window, marks it clean and zeroes the counters.
// snap must be the image the store was last loaded from; the store is then
// zero everywhere, as fresh from New, and ready for the next LoadFrom.
func (m *Memory) Unload(snap Snapshot) {
	m.markWindow(snap)
	m.RestoreFrom(Snapshot{})
}

// markWindow widens the dirty window to cover snap's window.
func (m *Memory) markWindow(snap Snapshot) {
	if lo, hi := snap.Lo, snap.Hi(); lo < hi {
		m.lo, m.hi = min(m.lo, lo), max(m.hi, hi)
	}
}

// RestoreFrom puts snap back over the dirty window only — boot words where
// the dirty window overlaps snap's window, zero everywhere else in it —
// then marks the store clean and zeroes the counters. snap must be the
// image the store was last loaded from, so every word outside the dirty
// window already matches it. Restoring the zero Snapshot clears a store
// that was zero when last clean.
func (m *Memory) RestoreFrom(snap Snapshot) {
	if m.lo < m.hi {
		lo, hi := max(m.lo, snap.Lo), min(m.hi, snap.Hi())
		if lo < hi {
			copy(m.words[lo:hi], snap.Words[lo-snap.Lo:hi-snap.Lo])
			clear(m.words[m.lo:lo])
			clear(m.words[hi:m.hi])
		} else {
			clear(m.words[m.lo:m.hi])
		}
	}
	m.stats = Stats{}
	m.lo, m.hi = Size, 0
}

// DirtyRange reports the current dirty window [lo, hi); lo >= hi means the
// store is clean relative to the snapshot it was last loaded from.
func (m *Memory) DirtyRange() (lo, hi int) { return m.lo, m.hi }

// PeekRange returns an independent copy of words [lo, hi) without charging
// references — the raw capture a continuation snapshot needs. Returns nil
// for an empty range.
func (m *Memory) PeekRange(lo, hi int) []Word {
	if lo >= hi {
		return nil
	}
	return append([]Word(nil), m.words[lo:hi]...)
}

// WriteBack installs words at lo without charging references, widening the
// dirty window to cover them — the restore of a parked continuation's delta
// over a freshly reset store. The reference counters are untouched: a
// resumed segment accounts only the work it does after resumption, and the
// next RestoreFrom still knows exactly what to undo.
func (m *Memory) WriteBack(lo int, words []Word) {
	if len(words) == 0 {
		return
	}
	copy(m.words[lo:lo+len(words)], words)
	if lo < m.lo {
		m.lo = lo
	}
	if lo+len(words) > m.hi {
		m.hi = lo + len(words)
	}
}

// DirtyWords reports the size of the current dirty window (diagnostics).
func (m *Memory) DirtyWords() int {
	if m.lo >= m.hi {
		return 0
	}
	return m.hi - m.lo
}

// Dump formats words [a, a+n) for debugging.
func (m *Memory) Dump(a Addr, n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += fmt.Sprintf("%04x: %04x\n", int(a)+i, m.words[(int(a)+i)&(Size-1)])
	}
	return s
}
