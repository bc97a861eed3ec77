// Package registry is the multi-tenant program cache behind fpcd's load
// path: every linked program is keyed by the content hash of its linked
// bytes, verified and predecoded exactly once on first sight, and kept
// resident as a LoadedImage with a warm machine pool until a memory-budget
// LRU evicts it. Repeat submissions — from any tenant — hit the cache and
// run on a pooled machine with zero load-path work: no compile, no link,
// no verification, no predecode, no boot.
//
// This is the paper's founding observation applied one level up: PR 1-5
// amortized transfer, decode and verification cost across the calls of one
// image; the registry amortizes the whole load path across submissions.
// Cross-tenant sharing is safe because the image is immutable and every
// run checks its own stack: the machine checks every push and pop, and
// per-run step budgets and the machine-per-run pool discipline bound a
// hostile program to its own resources. The verifier (Config.Verify)
// keeps out programs that definitely fault or whose linkage words
// disagree with the linker's metadata.
//
// Concurrency: Submit is safe from any number of goroutines. First sight
// of a hash is single-flight — concurrent submitters of the same program
// coalesce onto one load and all count as hits except the one that paid.
package registry

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	fpc "repro"
	"repro/internal/core"
	"repro/internal/snapshot"
)

// Config parameterizes a Registry.
type Config struct {
	// Machine is the configuration images are loaded under (one registry
	// serves one machine configuration, like one fpcd process).
	Machine fpc.Config
	// Verify gates admission on the link-time verifier: rejected programs
	// are never cached and cost zero machine steps. Admission is all it
	// decides; an admitted image loads as an unverified one would.
	Verify bool
	// MemoryBudget bounds resident image bytes (image footprint plus warm
	// machines), LRU-evicting beyond it. <=0 selects 256 MiB. A pinned or
	// sole resident image may exceed the budget; the budget then admits
	// nothing else.
	MemoryBudget int64
	// MaxImages caps resident images regardless of bytes. <=0 = unlimited.
	MaxImages int
	// WarmMachines pre-boots this many machines into each admitted image's
	// pool, moving even the boot memcpy off the first requests' path.
	// <0 disables warming; 0 selects 1.
	WarmMachines int
	// Sessions bounds the parked-session table (LRU + TTL + per-tenant
	// quotas); zero fields take snapshot.TableConfig defaults.
	Sessions snapshot.TableConfig
}

func (c *Config) fill() {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 256 << 20
	}
	if c.WarmMachines == 0 {
		c.WarmMachines = 1
	}
	if c.WarmMachines < 0 {
		c.WarmMachines = 0
	}
}

// Stats is the registry's exact counter set. Every Submit increments
// exactly one of Hits/Misses; every Lookup increments exactly one of
// Hits/NotFound — so Hits+Misses+NotFound always equals submits+lookups,
// and Misses is precisely the number of verify+predecode loads ever
// initiated (the "paid the load path" count the hit-path guarantee is
// asserted against).
type Stats struct {
	Hits           uint64 // submits/lookups served from a resident (or in-flight) entry
	Misses         uint64 // submits that initiated a load (verify+predecode+boot)
	Evictions      uint64 // entries LRU- or explicitly evicted
	NotFound       uint64 // lookups of hashes not resident
	VerifyRejected uint64 // loads the verifier refused (never cached)
	Resident       int    // images currently resident (including pinned)
	Pinned         int    // resident images exempt from eviction
	MemoryBytes    int64  // accounted bytes of resident images + warm machines
	MemoryBudget   int64

	// Certified is always zero.
	//
	// Deprecated: the verifier grants no certificate; it only admits or
	// rejects. CertifiedByCert and Uncertified are deprecated with it.
	Certified       uint64
	CertifiedByCert map[string]uint64 // Deprecated: always nil.
	Uncertified     uint64            // Deprecated: always zero.
}

// Entry is one resident program: the shared verified image and its warm
// pool. Entries are handed out by Submit/Lookup and stay valid for the
// runs already routed to them even after eviction (the image is
// immutable); the registry just never hands an evicted entry out again.
type Entry struct {
	hash  string
	bytes int64

	// img/pool/err are written under the registry's mu before ready is
	// closed; waiters read them only after <-ready, so the channel close
	// publishes them.
	ready chan struct{}
	img   *fpc.LoadedImage
	pool  *fpc.Pool
	err   error

	evicted atomic.Bool

	// guarded by the owning registry's mu
	pinned  bool
	elem    *list.Element
	srcKeys []string // source-memo keys resolving to this entry
}

// Hash returns the entry's content address.
func (e *Entry) Hash() string { return e.hash }

// Image returns the shared verified, predecoded image.
func (e *Entry) Image() *fpc.LoadedImage { return e.img }

// Pool returns the entry's warm machine pool.
func (e *Entry) Pool() *fpc.Pool { return e.pool }

// Bytes returns the memory the entry is accounted at.
func (e *Entry) Bytes() int64 { return e.bytes }

// Registry is the content-addressed image cache. Create with New.
type Registry struct {
	cfg Config

	mu       sync.Mutex
	byHash   map[string]*Entry
	bySource map[string]string // source key -> content hash
	lru      *list.List        // front = most recently used; holds *Entry
	mem      int64
	stats    Stats

	// retired accumulates the pool aggregates of evicted entries so the
	// registry-wide totals stay exact across evictions.
	retired     core.Metrics
	retiredRuns uint64

	// sessions holds parked continuations, keyed off-machine by session id
	// and tied to images only through their content hash (see sessions.go).
	sessions *snapshot.Table
}

// New builds a Registry with cfg (zero fields defaulted).
func New(cfg Config) *Registry {
	cfg.fill()
	return &Registry{
		cfg:      cfg,
		byHash:   map[string]*Entry{},
		bySource: map[string]string{},
		lru:      list.New(),
		sessions: snapshot.NewTable(cfg.Sessions),
	}
}

// SourceKey computes the admission memo key for a /run-shaped submission:
// a hash over the module sources and the entry name. It lets a repeat
// submission skip even the compile and link — the memo resolves straight
// to the cached image. The key is not the image identity (that is the
// content hash of the linked bytes); it is only a shortcut to it.
func SourceKey(sources map[string]string, entry string) string {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	var lenBuf [4]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	writeStr(entry)
	for _, n := range names {
		writeStr(n)
		writeStr(sources[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Submit admits a linked program: on first sight of its content hash the
// program is verified (when configured), loaded and predecoded once, and
// cached behind a warm pool; afterwards — and for every concurrent
// submitter that arrives while the load is in flight — Submit returns the
// resident entry with zero load-path work. hit reports whether this call
// was served from the cache. A load the verifier rejects returns the
// *core.VerifyError and caches nothing.
func (r *Registry) Submit(prog *fpc.Program) (e *Entry, hit bool, err error) {
	return r.submit(prog, "")
}

// SubmitSource is Submit for submissions identified by a source-level key
// (see SourceKey) whose linked program is expensive to produce: when the
// key resolves to a resident image, build is never called — the hit path
// does zero compile, link, verify or predecode work. On a memo miss,
// build's program is submitted by content hash (which may itself still
// hit: two different sources linking to identical bytes share one image)
// and the key is memoized to the result.
func (r *Registry) SubmitSource(key string, build func() (*fpc.Program, error)) (e *Entry, hit bool, err error) {
	r.mu.Lock()
	if hash, ok := r.bySource[key]; ok {
		if ent, ok := r.byHash[hash]; ok {
			return r.hitLocked(ent) // unlocks
		}
		// The memoized image was evicted and its keys should have gone
		// with it; drop the stale key and rebuild.
		delete(r.bySource, key)
	}
	r.mu.Unlock()
	prog, err := build()
	if err != nil {
		return nil, false, err
	}
	return r.submit(prog, key)
}

// Lookup returns the resident entry for a content hash, bumping its
// recency. A hash that is not resident (never submitted, or evicted)
// counts NotFound.
func (r *Registry) Lookup(hash string) (*Entry, bool) {
	r.mu.Lock()
	ent, ok := r.byHash[hash]
	if !ok {
		r.stats.NotFound++
		r.mu.Unlock()
		return nil, false
	}
	e, _, err := r.hitLocked(ent) // unlocks
	if err != nil {
		return nil, false
	}
	return e, true
}

// hitLocked serves a cache hit: recency bump, hit count, then (outside
// the lock) waits for an in-flight load to finish. Callers must hold mu;
// it is released on return.
func (r *Registry) hitLocked(ent *Entry) (*Entry, bool, error) {
	r.stats.Hits++
	if ent.elem != nil {
		r.lru.MoveToFront(ent.elem)
	}
	r.mu.Unlock()
	<-ent.ready
	if ent.err != nil {
		return nil, true, ent.err
	}
	return ent, true, nil
}

// submit implements the single-flight admission: exactly one caller per
// content hash runs the load path; everyone else coalesces onto it.
func (r *Registry) submit(prog *fpc.Program, srcKey string) (*Entry, bool, error) {
	hash := prog.ContentHash()
	r.mu.Lock()
	if ent, ok := r.byHash[hash]; ok {
		if srcKey != "" {
			r.memoLocked(srcKey, ent)
		}
		return r.hitLocked(ent) // unlocks
	}

	ent := &Entry{hash: hash, ready: make(chan struct{})}
	r.stats.Misses++
	r.byHash[hash] = ent
	ent.elem = r.lru.PushFront(ent)
	if srcKey != "" {
		r.memoLocked(srcKey, ent)
	}
	r.mu.Unlock()

	img, err := r.load(prog)
	if err != nil {
		r.mu.Lock()
		ent.err = err
		r.removeLocked(ent)
		var verr *core.VerifyError
		if errors.As(err, &verr) {
			r.stats.VerifyRejected++
		}
		r.mu.Unlock()
		close(ent.ready)
		return nil, false, err
	}

	pool := fpc.NewPoolFromImage(img)
	if err := pool.Warm(r.cfg.WarmMachines); err != nil {
		r.mu.Lock()
		ent.err = err
		r.removeLocked(ent)
		r.mu.Unlock()
		close(ent.ready)
		return nil, false, err
	}

	r.mu.Lock()
	ent.img = img
	ent.pool = pool
	ent.bytes = img.MemoryFootprint() + int64(r.cfg.WarmMachines)*img.MachineFootprint()
	r.mem += ent.bytes
	evicted := r.evictLocked(ent)
	r.mu.Unlock()
	close(ent.ready)
	r.retire(evicted)
	return ent, false, nil
}

// load runs the once-per-hash load path: verification (when configured)
// plus predecode and boot-snapshot capture.
func (r *Registry) load(prog *fpc.Program) (*fpc.LoadedImage, error) {
	if r.cfg.Verify {
		return fpc.LoadImageVerified(prog, r.cfg.Machine)
	}
	return fpc.LoadImage(prog, r.cfg.Machine)
}

func (r *Registry) memoLocked(key string, ent *Entry) {
	if _, ok := r.bySource[key]; ok {
		return
	}
	r.bySource[key] = ent.hash
	ent.srcKeys = append(ent.srcKeys, key)
}

// AdoptPinned inserts an already-loaded image (fpcd's boot program) with
// its existing pool as a permanently resident entry: it participates in
// lookups and memory accounting but is never evicted. Adopting a hash
// that is already resident pins and returns the resident entry.
func (r *Registry) AdoptPinned(img *fpc.LoadedImage, pool *fpc.Pool) *Entry {
	hash := img.Program().ContentHash()
	r.mu.Lock()
	defer r.mu.Unlock()
	if ent, ok := r.byHash[hash]; ok {
		if !ent.pinned {
			ent.pinned = true
			r.stats.Pinned++
		}
		return ent
	}
	ent := &Entry{
		hash:   hash,
		img:    img,
		pool:   pool,
		bytes:  img.MemoryFootprint(),
		pinned: true,
		ready:  make(chan struct{}),
	}
	close(ent.ready)
	r.byHash[hash] = ent
	ent.elem = r.lru.PushFront(ent)
	r.mem += ent.bytes
	r.stats.Pinned++
	return ent
}

// Evict removes a resident entry by hash, if present and not pinned.
// In-flight runs on its pool finish undisturbed (the image is immutable);
// the registry just never serves the entry again — a fresh submission of
// the same program reloads from scratch.
func (r *Registry) Evict(hash string) bool {
	r.mu.Lock()
	ent, ok := r.byHash[hash]
	if !ok || ent.pinned || ent.img == nil {
		r.mu.Unlock()
		return false
	}
	r.evictEntryLocked(ent)
	r.mu.Unlock()
	r.retire([]*Entry{ent})
	return true
}

// evictLocked enforces MaxImages and MemoryBudget by evicting from the
// LRU tail, skipping pinned entries, in-flight loads and keep (the entry
// whose admission triggered the sweep — a single over-budget image stays
// resident rather than thrashing). Returns the evicted entries for the
// caller to retire outside the lock.
func (r *Registry) evictLocked(keep *Entry) []*Entry {
	var out []*Entry
	over := func() bool {
		if r.mem > r.cfg.MemoryBudget {
			return true
		}
		return r.cfg.MaxImages > 0 && r.residentLocked() > r.cfg.MaxImages
	}
	for over() {
		var victim *Entry
		for el := r.lru.Back(); el != nil; el = el.Prev() {
			ent := el.Value.(*Entry)
			if ent.pinned || ent == keep || ent.img == nil {
				continue // img == nil: load still in flight
			}
			victim = ent
			break
		}
		if victim == nil {
			return out
		}
		r.evictEntryLocked(victim)
		out = append(out, victim)
	}
	return out
}

func (r *Registry) residentLocked() int { return len(r.byHash) }

func (r *Registry) evictEntryLocked(ent *Entry) {
	r.removeLocked(ent)
	ent.evicted.Store(true)
	r.mem -= ent.bytes
	r.stats.Evictions++
}

// removeLocked unlinks an entry from every index (hash map, LRU, source
// memo) without touching counters.
func (r *Registry) removeLocked(ent *Entry) {
	delete(r.byHash, ent.hash)
	if ent.elem != nil {
		r.lru.Remove(ent.elem)
		ent.elem = nil
	}
	for _, k := range ent.srcKeys {
		if r.bySource[k] == ent.hash {
			delete(r.bySource, k)
		}
	}
	ent.srcKeys = nil
}

// retire folds evicted entries' pool aggregates into the retained totals
// so Aggregate stays exact across evictions, then releases each pool, so
// the evicted image's machines hand their stores on to the next image's
// boots (Pool.Release). Runs still in flight on an evicted pool merge
// into that pool after this snapshot and are lost to the aggregate — the
// serving layer's own per-request counters remain exact — so retire is
// called after eviction, when the registry has stopped routing new work
// to the pool.
func (r *Registry) retire(ents []*Entry) {
	for _, ent := range ents {
		if ent.pool == nil {
			continue
		}
		mt := ent.pool.Metrics()
		runs := ent.pool.Runs()
		r.mu.Lock()
		r.retired.Merge(mt)
		r.retiredRuns += runs
		r.mu.Unlock()
		ent.pool.Release()
	}
}

// Evicted reports whether the entry has been evicted from its registry.
func (e *Entry) Evicted() bool { return e.evicted.Load() }

// Stats returns a snapshot of the exact counter set.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Resident = r.residentLocked()
	s.MemoryBytes = r.mem
	s.MemoryBudget = r.cfg.MemoryBudget
	return s
}

// Aggregate returns the registry-wide run totals: every resident pool's
// aggregate plus the retained aggregates of evicted pools.
func (r *Registry) Aggregate() (runs uint64, mt *fpc.Metrics) {
	r.mu.Lock()
	pools := make([]*fpc.Pool, 0, len(r.byHash))
	for _, ent := range r.byHash {
		if ent.pool != nil {
			pools = append(pools, ent.pool)
		}
	}
	agg := r.retired.Clone()
	runs = r.retiredRuns
	r.mu.Unlock()
	for _, p := range pools {
		agg.Merge(p.Metrics())
		runs += p.Runs()
	}
	return runs, agg
}

// Resident returns the hashes of the currently resident images, most
// recently used first.
func (r *Registry) Resident() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry).hash)
	}
	return out
}

// String renders a one-line summary for logs.
func (r *Registry) String() string {
	s := r.Stats()
	return fmt.Sprintf("registry{resident %d, %d/%d bytes, hits %d, misses %d, evictions %d}",
		s.Resident, s.MemoryBytes, s.MemoryBudget, s.Hits, s.Misses, s.Evictions)
}
