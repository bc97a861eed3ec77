// Package frames implements the paper's specialized frame heap (§5.3,
// Figure 2): an allocation vector AV of free lists indexed by frame size
// index (fsi), with frame sizes growing geometrically (~20–25% steps) from a
// 16-byte minimum.
//
// The fast path costs exactly the references the paper reports: three memory
// references to allocate a frame (fetch list head from AV, fetch next pointer
// from the first node, store it into the list head) and four to free one
// (fetch the frame's size index, fetch the list head, store it into the
// frame, store the frame into the list head). When a free list is empty the
// allocator traps to a software allocator which carves new frames of the
// desired size out of a bump region; its references are charged too, so the
// "slow path ≈ 5× the fast path" economics of §7.1 fall out of the counts.
//
// The allocator does not depend on a last-in first-out discipline: it
// uniformly serves procedure frames, coroutine and process frames, retained
// frames, and long argument records (§5.3).
package frames

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Overhead is the per-frame header size in words. The paper gives each frame
// "an extra word which holds its frame size index"; we use two words so the
// frame body stays even-aligned (bit 0 of a frame pointer is the context tag
// bit and must be zero).
const Overhead = 2

// Header word layout (at lf-Overhead).
const (
	fsiMask      = 0x00ff // low byte: frame size index
	FlagRetained = 0x0100 // frame outlives its return (§4); freeing is the owner's job
	FlagPointers = 0x0200 // pointers to locals may exist (§7.4 C2); banks must flush
)

// DefaultSizes returns the default size-class table: payload words per fsi,
// starting at 8 words (16 bytes) and growing by the given percentage per
// step, rounded up to even. growthPct=25 with 20 classes covers 16 bytes to
// about 1.5 KB, matching the paper's "less than 20 steps ... up to several
// thousand bytes" once header overhead is included.
func DefaultSizes(classes, growthPct int) []int {
	if classes <= 0 {
		classes = 20
	}
	if growthPct <= 0 {
		growthPct = 25
	}
	sizes := make([]int, classes)
	s := 8
	for i := range sizes {
		sizes[i] = s
		next := (s*(100+growthPct) + 99) / 100
		if next < s+2 {
			next = s + 2
		}
		if next%2 != 0 {
			next++
		}
		s = next
	}
	return sizes
}

// Config fixes where the allocator's structures live in the main data space.
type Config struct {
	AVBase    mem.Addr // first word of the allocation vector (one word per class)
	HeapBase  mem.Addr // first word of the region the software allocator carves
	HeapLimit mem.Addr // one past the last usable word
	Sizes     []int    // payload words per size class, ascending; nil = DefaultSizes(20, 25)
	Replenish int      // frames carved per software-allocator trap; 0 = 4
	Check     bool     // maintain a shadow model and verify invariants
}

// Stats reports allocator activity.
type Stats struct {
	FastAllocs     uint64 // allocations served from a free list
	TrapAllocs     uint64 // software-allocator traps (empty free list)
	Frees          uint64
	Live           uint64 // currently allocated frames
	RequestedWords uint64 // payload words requested by AllocWords
	GrantedWords   uint64 // payload words actually granted (class size)
	CarvedWords    uint64 // words consumed from the bump region (incl. headers)
}

// InternalFragmentation reports the fraction of granted payload space wasted
// by size-class rounding (the paper reports about 10%).
func (s Stats) InternalFragmentation() float64 {
	if s.GrantedWords == 0 {
		return 0
	}
	return float64(s.GrantedWords-s.RequestedWords) / float64(s.GrantedWords)
}

// Heap is the frame allocator. It is not safe for concurrent use; the
// simulated processor is single-threaded.
type Heap struct {
	m     *mem.Memory
	cfg   Config
	sizes []int
	bump  int // next free word in the bump region
	stats Stats

	// shadow model for Check mode
	live map[mem.Addr]int // lf -> fsi
}

// Errors reported by the heap.
var (
	ErrExhausted = errors.New("frames: heap region exhausted")
	ErrBadSize   = errors.New("frames: no size class large enough")
	ErrBadFree   = errors.New("frames: free of unallocated or corrupt frame")
)

// makeHeap validates cfg and builds a heap shell without touching memory or
// deciding the bump pointer (shared by New and Adopt).
func makeHeap(m *mem.Memory, cfg Config) (*Heap, error) {
	if cfg.Sizes == nil {
		cfg.Sizes = DefaultSizes(20, 25)
	}
	if cfg.Replenish <= 0 {
		cfg.Replenish = 4
	}
	if len(cfg.Sizes) > 256 {
		return nil, fmt.Errorf("frames: %d size classes exceed the one-byte fsi", len(cfg.Sizes))
	}
	for i := 1; i < len(cfg.Sizes); i++ {
		if cfg.Sizes[i] <= cfg.Sizes[i-1] {
			return nil, fmt.Errorf("frames: size table not ascending at %d", i)
		}
	}
	if int(cfg.HeapBase) >= int(cfg.HeapLimit) {
		return nil, fmt.Errorf("frames: empty heap region [%d,%d)", cfg.HeapBase, cfg.HeapLimit)
	}
	h := &Heap{m: m, cfg: cfg, sizes: cfg.Sizes}
	if cfg.Check {
		h.live = make(map[mem.Addr]int)
	}
	return h, nil
}

// New creates a heap over m. The AV is zeroed (all lists empty).
func New(m *mem.Memory, cfg Config) (*Heap, error) {
	h, err := makeHeap(m, cfg)
	if err != nil {
		return nil, err
	}
	h.bump = int(h.cfg.HeapBase)
	if h.bump%2 != 0 {
		h.bump++ // keep frame bodies even-aligned
	}
	for i := range h.sizes {
		m.Poke(h.cfg.AVBase+mem.Addr(i), 0)
	}
	return h, nil
}

// State is the allocator's non-memory register state: everything a machine
// must restore, besides the store contents themselves, to put the heap
// back at a snapshot point. The free lists and headers live in the store
// and travel with its snapshot.
type State struct {
	Bump  int
	Stats Stats
	Live  map[mem.Addr]int // shadow model; nil unless Check mode
}

// State captures the allocator's register state (deep copy).
func (h *Heap) State() State {
	s := State{Bump: h.bump, Stats: h.stats}
	if h.live != nil {
		s.Live = make(map[mem.Addr]int, len(h.live))
		for k, v := range h.live {
			s.Live[k] = v
		}
	}
	return s
}

// Restore puts the allocator's register state back to s (deep copy). The
// caller is responsible for restoring the store contents to match.
func (h *Heap) Restore(s State) {
	h.bump = s.Bump
	h.stats = s.Stats
	if h.live != nil {
		h.live = make(map[mem.Addr]int, len(s.Live))
		for k, v := range s.Live {
			h.live[k] = v
		}
	}
}

// Adopt attaches a heap to a store whose allocator structures (AV, carved
// region, free lists) are already initialized — a machine booting from a
// shared snapshot — restoring the register state from s instead of zeroing
// the AV.
func Adopt(m *mem.Memory, cfg Config, s State) (*Heap, error) {
	h, err := makeHeap(m, cfg)
	if err != nil {
		return nil, err
	}
	h.Restore(s)
	return h, nil
}

// Classes reports the number of size classes.
func (h *Heap) Classes() int { return len(h.sizes) }

// SizeOf reports the payload words of class fsi.
func (h *Heap) SizeOf(fsi int) int { return h.sizes[fsi] }

// FSIForWords reports the smallest class holding n payload words.
func (h *Heap) FSIForWords(n int) (int, bool) {
	for i, s := range h.sizes {
		if s >= n {
			return i, true
		}
	}
	return 0, false
}

// Alloc allocates a frame of class fsi and returns its body address (LF).
// The fast path performs exactly three memory references.
func (h *Heap) Alloc(fsi int) (mem.Addr, error) {
	if fsi < 0 || fsi >= len(h.sizes) {
		return 0, fmt.Errorf("%w: fsi %d", ErrBadSize, fsi)
	}
	av := h.cfg.AVBase + mem.Addr(fsi)
	head := h.m.Read(av) // ref 1
	if head == 0 {
		if err := h.replenish(fsi); err != nil {
			return 0, err
		}
		h.stats.TrapAllocs++
		head = h.m.Read(av)
	} else {
		h.stats.FastAllocs++
	}
	if head&1 != 0 {
		// A program store rewrote the list head or a free frame's link:
		// frame bodies are even-aligned.
		return 0, fmt.Errorf("%w: class %d free list holds %04x", ErrBadFree, fsi, head)
	}
	if h.live != nil {
		if _, dup := h.live[head]; dup {
			// The same corruption, caught by the shadow model: the
			// list now leads to a frame still in use.
			return 0, fmt.Errorf("%w: class %d free list holds live frame %04x", ErrBadFree, fsi, head)
		}
	}
	next := h.m.Read(head) // ref 2: next pointer lives in the free frame's first word
	h.m.Write(av, next)    // ref 3
	h.stats.Live++
	h.stats.GrantedWords += uint64(h.sizes[fsi])
	if h.live != nil {
		h.live[head] = fsi
	}
	return head, nil
}

// AllocWords allocates the smallest frame holding n payload words, tracking
// the request for fragmentation accounting. It returns the frame and its fsi.
func (h *Heap) AllocWords(n int) (mem.Addr, int, error) {
	fsi, ok := h.FSIForWords(n)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %d words", ErrBadSize, n)
	}
	lf, err := h.Alloc(fsi)
	if err != nil {
		return 0, 0, err
	}
	h.stats.RequestedWords += uint64(n)
	return lf, fsi, nil
}

// Free returns frame lf to its free list. It performs exactly four memory
// references: the frame's stored size index means the caller need not know
// the size (§5.3).
func (h *Heap) Free(lf mem.Addr) error {
	hdr := h.m.Read(lf - Overhead) // ref 1
	fsi := int(hdr & fsiMask)
	if fsi >= len(h.sizes) {
		return fmt.Errorf("%w: header %04x at %04x", ErrBadFree, hdr, lf)
	}
	if h.live != nil {
		want, ok := h.live[lf]
		if !ok {
			return fmt.Errorf("%w: %04x not live", ErrBadFree, lf)
		}
		if want != fsi {
			return fmt.Errorf("%w: %04x header fsi %d, allocated as %d", ErrBadFree, lf, fsi, want)
		}
		delete(h.live, lf)
	}
	av := h.cfg.AVBase + mem.Addr(fsi)
	head := h.m.Read(av) // ref 2
	h.m.Write(lf, head)  // ref 3
	h.m.Write(av, lf)    // ref 4
	h.stats.Frees++
	h.stats.Live--
	return nil
}

// FreeKnown returns frame lf, whose size class the caller already knows
// (it is processor-register state on the fast return path), to its free
// list in three memory references instead of four.
func (h *Heap) FreeKnown(lf mem.Addr, fsi int) error {
	if fsi < 0 || fsi >= len(h.sizes) {
		return fmt.Errorf("%w: fsi %d for %04x", ErrBadFree, fsi, lf)
	}
	if h.live != nil {
		want, ok := h.live[lf]
		if !ok {
			return fmt.Errorf("%w: %04x not live", ErrBadFree, lf)
		}
		if want != fsi {
			return fmt.Errorf("%w: %04x is class %d, freed as %d", ErrBadFree, lf, want, fsi)
		}
		delete(h.live, lf)
	}
	av := h.cfg.AVBase + mem.Addr(fsi)
	head := h.m.Read(av) // ref 1
	h.m.Write(lf, head)  // ref 2
	h.m.Write(av, lf)    // ref 3
	h.stats.Frees++
	h.stats.Live--
	return nil
}

// Header returns the header word of a live frame (no reference charged;
// used by retained-frame bookkeeping and tests).
func (h *Heap) Header(lf mem.Addr) mem.Word { return h.m.Peek(lf - Overhead) }

// SetFlag ors flag into lf's header word, charging one read and one write.
func (h *Heap) SetFlag(lf mem.Addr, flag mem.Word) {
	h.m.Write(lf-Overhead, h.m.Read(lf-Overhead)|flag)
}

// HasFlag reports whether lf's header has flag set, charging one read.
func (h *Heap) HasFlag(lf mem.Addr, flag mem.Word) bool {
	return h.m.Read(lf-Overhead)&flag != 0
}

// FSIOf reports the size class of a live frame without charging a reference.
func (h *Heap) FSIOf(lf mem.Addr) int { return int(h.m.Peek(lf-Overhead) & fsiMask) }

// Stats returns a copy of the allocator counters.
func (h *Heap) Stats() Stats { return h.stats }

// replenish is the software allocator: carve Replenish frames of class fsi
// from the bump region and push them on the free list. Its references are
// charged like any other software.
func (h *Heap) replenish(fsi int) error {
	block := h.sizes[fsi] + Overhead
	if block%2 != 0 {
		block++
	}
	for i := 0; i < h.cfg.Replenish; i++ {
		if h.bump+block > int(h.cfg.HeapLimit) {
			if i > 0 {
				return nil // partial replenish is fine
			}
			return fmt.Errorf("%w: need %d words at %d, limit %d", ErrExhausted, block, h.bump, h.cfg.HeapLimit)
		}
		lf := mem.Addr(h.bump + Overhead)
		h.m.Write(lf-Overhead, mem.Word(fsi)) // header: size index
		// push on free list
		head := h.m.Read(h.cfg.AVBase + mem.Addr(fsi))
		h.m.Write(lf, head)
		h.m.Write(h.cfg.AVBase+mem.Addr(fsi), lf)
		h.bump += block
		h.stats.CarvedWords += uint64(block)
	}
	return nil
}

// CheckInvariants verifies (in Check mode) that live frames do not overlap
// and that free lists are well formed. Returns an error describing the first
// violation found.
func (h *Heap) CheckInvariants() error {
	if h.live == nil {
		return errors.New("frames: CheckInvariants requires Config.Check")
	}
	type span struct{ lo, hi int }
	var spans []span
	for lf, fsi := range h.live {
		lo := int(lf) - Overhead
		hi := int(lf) + h.sizes[fsi]
		if lo < int(h.cfg.HeapBase) || hi > h.bump {
			return fmt.Errorf("frames: live frame %04x outside carved region", lf)
		}
		spans = append(spans, span{lo, hi})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				return fmt.Errorf("frames: live frames overlap: [%d,%d) and [%d,%d)", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
	for fsi := range h.sizes {
		seen := map[mem.Addr]bool{}
		for p := h.m.Peek(h.cfg.AVBase + mem.Addr(fsi)); p != 0; p = h.m.Peek(p) {
			if seen[p] {
				return fmt.Errorf("frames: cycle in free list %d at %04x", fsi, p)
			}
			seen[p] = true
			if got := int(h.m.Peek(p-Overhead) & fsiMask); got != fsi {
				return fmt.Errorf("frames: frame %04x on list %d has header fsi %d", p, fsi, got)
			}
			if _, isLive := h.live[p]; isLive {
				return fmt.Errorf("frames: frame %04x is both live and free", p)
			}
		}
	}
	return nil
}
