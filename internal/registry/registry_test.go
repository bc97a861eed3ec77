package registry

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	fpc "repro"
	"repro/internal/core"
)

// progSrc builds a distinct program per id: the linked bytes differ (a
// unique constant), so every id gets its own content hash.
func progSrc(id int) map[string]string {
	return map[string]string{"m": fmt.Sprintf(`
module m;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc main(n) { return fib(n) + %d; }
`, id%1000)}
}

func buildProg(t *testing.T, id int) *fpc.Program {
	t.Helper()
	prog, err := fpc.Build(progSrc(id), "m", "main", fpc.DefaultLinkOptions(fpc.ConfigFastCalls))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func newRegistry(cfg Config) *Registry {
	cfg.Machine = fpc.ConfigFastCalls
	return New(cfg)
}

// The acceptance criterion: submitting the same program twice performs
// the load path (verify+predecode+boot) exactly once — Misses counts
// loads, and the second submit is a pure hit on the same entry and pool.
func TestSubmitTwiceLoadsOnce(t *testing.T) {
	r := newRegistry(Config{Verify: true})
	prog := buildProg(t, 1)

	e1, hit1, err := r.Submit(prog)
	if err != nil || hit1 {
		t.Fatalf("first submit: hit=%v err=%v", hit1, err)
	}
	e2, hit2, err := r.Submit(buildProg(t, 1)) // same bytes, separate build
	if err != nil || !hit2 {
		t.Fatalf("second submit: hit=%v err=%v", hit2, err)
	}
	if e1 != e2 || e1.Pool() != e2.Pool() {
		t.Fatal("repeat submission did not land on the cached entry/pool")
	}
	s := r.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want exactly 1 miss (load) and 1 hit", s)
	}

	// The cached entry actually runs, warm.
	res, err := e2.Pool().Call(e2.Image().Entry(), 10)
	if err != nil || len(res) != 1 || res[0] != 55+1 {
		t.Fatalf("cached run: %v %v", res, err)
	}
}

// SubmitSource: the hit path must not even build — the build closure runs
// exactly once per source key.
func TestSubmitSourceSkipsBuild(t *testing.T) {
	r := newRegistry(Config{Verify: true})
	key := SourceKey(progSrc(2), "m.main")
	var builds atomic.Int32
	build := func() (*fpc.Program, error) {
		builds.Add(1)
		return fpc.Build(progSrc(2), "m", "main", fpc.DefaultLinkOptions(fpc.ConfigFastCalls))
	}
	if _, hit, err := r.SubmitSource(key, build); err != nil || hit {
		t.Fatalf("cold: hit=%v err=%v", hit, err)
	}
	for i := 0; i < 5; i++ {
		if _, hit, err := r.SubmitSource(key, build); err != nil || !hit {
			t.Fatalf("warm %d: hit=%v err=%v", i, hit, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	if s := r.Stats(); s.Misses != 1 || s.Hits != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

// Two different source keys that link to identical bytes share one image:
// the content hash, not the source text, is the identity.
func TestContentIdentityAcrossSources(t *testing.T) {
	r := newRegistry(Config{})
	// Same program text under different map spellings (extra whitespace in
	// a comment-free grammar is not available, so use two keys for the
	// same sources — distinct SourceKey via different entry spelling is
	// not possible either; instead submit the same program under two
	// explicitly different keys).
	build := func() (*fpc.Program, error) {
		return fpc.Build(progSrc(3), "m", "main", fpc.DefaultLinkOptions(fpc.ConfigFastCalls))
	}
	e1, _, err := r.SubmitSource("key-a", build)
	if err != nil {
		t.Fatal(err)
	}
	e2, hit, err := r.SubmitSource("key-b", build)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || e1 != e2 {
		t.Fatal("identical linked bytes under a second key did not hit the cached image")
	}
	if s := r.Stats(); s.Misses != 1 {
		t.Fatalf("stats = %+v, want a single load", s)
	}
}

// Verifier-rejected programs are never cached: every submission pays the
// static analysis (and nothing else), and nothing becomes resident.
func TestVerifyRejectedNotCached(t *testing.T) {
	r := newRegistry(Config{Verify: true})
	// Deep expression nesting overflows the 13-word evaluation stack;
	// the verifier proves it statically.
	src := map[string]string{"m": `
module m;
proc main() { return 1+(1+(1+(1+(1+(1+(1+(1+(1+(1+(1+(1+(1+(1+(1+(1+(1))))))))))))))));}
`}
	prog, err := fpc.Build(src, "m", "main", fpc.DefaultLinkOptions(fpc.ConfigFastCalls))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, _, err := r.Submit(prog)
		var verr *core.VerifyError
		if !errors.As(err, &verr) {
			t.Fatalf("submit %d: err = %v, want VerifyError", i, err)
		}
	}
	s := r.Stats()
	if s.VerifyRejected != 2 || s.Resident != 0 {
		t.Fatalf("stats = %+v, want 2 rejections and nothing resident", s)
	}
}

// LRU eviction under a MaxImages cap: the least recently used unpinned
// entry goes first, lookups of evicted hashes miss, and a re-submission
// reloads onto a fresh pool.
func TestEvictionLRU(t *testing.T) {
	r := newRegistry(Config{MaxImages: 2, WarmMachines: -1})
	e0, _, err := r.Submit(buildProg(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Submit(buildProg(t, 11)); err != nil {
		t.Fatal(err)
	}
	// Touch e0 so program 11 is the LRU victim when 12 arrives.
	if _, ok := r.Lookup(e0.Hash()); !ok {
		t.Fatal("resident lookup missed")
	}
	e2, _, err := r.Submit(buildProg(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	h11 := buildProg(t, 11).ContentHash()
	if _, ok := r.Lookup(h11); ok {
		t.Fatal("LRU victim still resident")
	}
	if got := r.Resident(); len(got) != 2 || got[0] != e2.Hash() {
		t.Fatalf("resident = %v", got)
	}
	s := r.Stats()
	if s.Evictions != 1 || s.Resident != 2 || s.NotFound != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// Re-submission after eviction is a fresh load on a fresh pool.
	re, hit, err := r.Submit(buildProg(t, 11))
	if err != nil || hit {
		t.Fatalf("resubmit: hit=%v err=%v", hit, err)
	}
	if re.Pool() == nil || re.Evicted() {
		t.Fatal("reloaded entry unusable")
	}
}

// Memory-budget eviction: entries are charged their accounted footprint
// and the budget holds the resident set down.
func TestEvictionMemoryBudget(t *testing.T) {
	r := newRegistry(Config{WarmMachines: -1})
	e, _, err := r.Submit(buildProg(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	per := e.Bytes()
	if per <= 0 {
		t.Fatalf("entry accounted at %d bytes", per)
	}
	// Rebuild the registry with room for exactly two images.
	r = newRegistry(Config{MemoryBudget: 2*per + per/2, WarmMachines: -1})
	for id := 20; id < 25; id++ {
		if _, _, err := r.Submit(buildProg(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Stats()
	if s.Resident != 2 || s.Evictions != 3 {
		t.Fatalf("stats = %+v, want 2 resident / 3 evicted under the byte budget", s)
	}
	if s.MemoryBytes > s.MemoryBudget {
		t.Fatalf("resident bytes %d exceed budget %d", s.MemoryBytes, s.MemoryBudget)
	}
}

// TestConcurrentCallsStayInBudget: the budget charges each image for the
// machines it warms, so calls running at once on resident images must not
// leave more machines behind than that. Every resident image serves conc
// calls at once, a few images are evicted, and after two GCs (which empty
// every sync.Pool) the heap the registry holds must still fit its budget,
// give or take what the budget does not charge for (entries, hashes, the
// lists), which the slack covers. Were each pool to keep the conc machines
// it booted, the heap would hold about budget/per × (conc-1) stores more.
func TestConcurrentCallsStayInBudget(t *testing.T) {
	const images, conc = 12, 8
	e, _, err := newRegistry(Config{}).Submit(buildProg(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	per := e.Bytes()
	budget := images*per + per/2
	slack := budget / 4
	var ms runtime.MemStats
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	r := newRegistry(Config{MemoryBudget: budget})
	var ents []*Entry
	for id := 50; id < 50+images+4; id++ {
		e, _, err := r.Submit(buildProg(t, id))
		if err != nil {
			t.Fatal(err)
		}
		ents = append(ents, e)
	}
	var wg, started sync.WaitGroup
	errs := make(chan error, len(ents)*conc)
	for _, e := range ents {
		if e.Evicted() {
			continue
		}
		pool := e.Pool()
		started.Add(conc)
		for i := 0; i < conc; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m, err := pool.Get()
				started.Done()
				if err != nil {
					errs <- err
					return
				}
				started.Wait() // every machine is checked out at once
				if _, err := m.Call(pool.Entry(), 10); err != nil {
					errs <- err
				}
				pool.Put(m)
			}()
		}
		wg.Wait()
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ents = nil // the evicted entries' images are no longer charged
	s := r.Stats()
	if s.Resident != images || s.MemoryBytes > budget {
		t.Fatalf("stats = %+v, want %d resident within the budget", s, images)
	}
	held := heap() - base
	t.Logf("heap held %d B; budget %d B, charged %d B, %d B per image", held, budget, s.MemoryBytes, per)
	if held > budget+slack {
		t.Fatalf("after %d calls at once per image, the registry holds %d B of heap, budget %d B + slack %d B",
			conc, held, budget, slack)
	}
	runtime.KeepAlive(r)
}

// Pinned entries are exempt: the boot image survives arbitrary churn.
func TestPinnedNeverEvicted(t *testing.T) {
	boot := buildProg(t, 30)
	img, err := fpc.LoadImageVerified(boot, fpc.ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	pool := fpc.NewPoolFromImage(img)
	r := newRegistry(Config{MaxImages: 1, WarmMachines: -1})
	pe := r.AdoptPinned(img, pool)
	for id := 31; id < 35; id++ {
		if _, _, err := r.Submit(buildProg(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := r.Lookup(pe.Hash()); !ok || got != pe {
		t.Fatal("pinned boot image was evicted")
	}
	if r.Evict(pe.Hash()) {
		t.Fatal("explicit Evict removed a pinned entry")
	}
}

// Concurrent first sight is single-flight: 12 goroutines submitting the
// same program produce exactly one load; the other 11 coalesce as hits.
func TestSingleFlight(t *testing.T) {
	r := newRegistry(Config{Verify: true})
	prog := buildProg(t, 40)
	const workers = 12
	var wg sync.WaitGroup
	entries := make([]*Entry, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e, _, err := r.Submit(prog)
			if err != nil {
				t.Error(err)
				return
			}
			entries[w] = e
		}(w)
	}
	wg.Wait()
	for _, e := range entries {
		if e != entries[0] {
			t.Fatal("concurrent submitters got different entries")
		}
	}
	s := r.Stats()
	if s.Misses != 1 || s.Hits != workers-1 {
		t.Fatalf("stats = %+v, want 1 load and %d coalesced hits", s, workers-1)
	}
}

// The satellite acceptance test: 12 goroutines hammer submit/call/evict
// over a small cache. Afterwards the counters must be exact —
// hits+misses+notfound accounts every operation one-for-one, evictions
// reconcile with loads and residency — and no evicted entry is ever
// handed out again (every entry served is checked non-evicted at
// serve time; runs on it must succeed).
func TestConcurrentSubmitCallEvictExactCounters(t *testing.T) {
	r := newRegistry(Config{MaxImages: 3, WarmMachines: -1})
	const (
		workers  = 12
		perWork  = 40
		programs = 8 // > MaxImages, so eviction churns constantly
	)
	progs := make([]*fpc.Program, programs)
	hashes := make([]string, programs)
	for i := range progs {
		progs[i] = buildProg(t, 50+i)
		hashes[i] = progs[i].ContentHash()
	}

	var submits, lookups, evicts atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWork; i++ {
				id := (w*7 + i*3) % programs
				switch (w + i) % 3 {
				case 0: // submit and run
					e, _, err := r.Submit(progs[id])
					if err != nil {
						t.Error(err)
						return
					}
					submits.Add(1)
					res, err := e.Pool().Call(e.Image().Entry(), 8)
					if err != nil || res[0] != uint16(21+(50+id)%1000) {
						t.Errorf("run on %d: %v %v", id, res, err)
						return
					}
				case 1: // lookup and, on hit, run
					lookups.Add(1)
					if e, ok := r.Lookup(hashes[id]); ok {
						if _, err := e.Pool().Call(e.Image().Entry(), 5); err != nil {
							t.Errorf("cached run: %v", err)
							return
						}
					}
				default: // explicit evict
					if r.Evict(hashes[id]) {
						evicts.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	s := r.Stats()
	ops := submits.Load() + lookups.Load()
	if got := s.Hits + s.Misses + s.NotFound; got != ops {
		t.Fatalf("hits(%d)+misses(%d)+notfound(%d) = %d, want %d ops",
			s.Hits, s.Misses, s.NotFound, got, ops)
	}
	// Every load is either still resident or was evicted, exactly.
	if s.Misses != s.Evictions+uint64(s.Resident) {
		t.Fatalf("misses(%d) != evictions(%d) + resident(%d)", s.Misses, s.Evictions, s.Resident)
	}
	// Explicit evictions are part of the eviction count (LRU adds more).
	if s.Evictions < evicts.Load() {
		t.Fatalf("evictions %d < explicit evicts %d", s.Evictions, evicts.Load())
	}
	if s.Resident > 3 {
		t.Fatalf("resident %d exceeds MaxImages", s.Resident)
	}
	// No pool serves after eviction: every currently resident entry must
	// be live, and every evicted hash must miss.
	for _, h := range r.Resident() {
		e, ok := r.Lookup(h)
		if !ok {
			continue // raced with nothing — single-threaded now
		}
		if e.Evicted() {
			t.Fatalf("lookup returned an evicted entry %s", h[:8])
		}
	}
	// The registry aggregate retains evicted pools' work (runs that were
	// still in flight at eviction may post after the retirement snapshot,
	// so >= is exact only per-request at the serving layer; here the
	// aggregate must at least have survived the churn).
	runs, mt := r.Aggregate()
	if runs == 0 || mt.Instructions == 0 {
		t.Fatal("registry aggregate lost the retired pools' work")
	}
}
