package fpc

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Pool serves procedure calls concurrently over one shared LoadedImage: a
// sync.Pool of machines, each reset to the image's boot snapshot between
// runs instead of being re-linked and re-booted. Pool.Call is safe for
// concurrent use from any number of goroutines.
//
// The machines Warm boots are the pool's kept machines: the pool lists
// them, so a GC that empties the sync.Pool does not take them, and Get
// finds an idle one there before it boots another. A machine booted
// beyond them, when more calls run at once than were warmed, lives in the
// sync.Pool alone and shrinks away under GC pressure like any sync.Pool.
// So an idle pool holds past a GC exactly what it warmed, which is what a
// registry charges an image for. Release hands the idle machines' stores
// on to the next image's boots; a registry releases the pool of every
// image it evicts.
//
// The pool keeps aggregate accounting: each machine's Metrics are merged
// into a pool-wide record when the machine is returned, so a serving
// process can report the same counters (cycles, references, fast-transfer
// fraction) as a single-machine experiment.
type Pool struct {
	img *LoadedImage
	// idle caches idle machines by P. It lives apart from the Pool: the
	// runtime holds a used sync.Pool until the second GC after its last
	// use, which must not hold an evicted Pool and its image too.
	idle *sync.Pool

	mu       sync.Mutex
	agg      core.Metrics
	runs     uint64
	kept     []*Machine // the machines Warm booted, idle or checked out
	released atomic.Bool
}

// NewPool loads prog once under cfg and returns a pool of machines over
// the shared image. It does not verify the program; LoadImageVerified
// plus NewPoolFromImage does.
func NewPool(prog *Program, cfg Config) (*Pool, error) {
	img, err := LoadImage(prog, cfg)
	if err != nil {
		return nil, err
	}
	return NewPoolFromImage(img), nil
}

// NewPoolFromImage returns a pool over an already-loaded image. Several
// pools may share one image.
func NewPoolFromImage(img *LoadedImage) *Pool {
	return &Pool{img: img, idle: new(sync.Pool)}
}

// Image returns the shared immutable image.
func (p *Pool) Image() *LoadedImage { return p.img }

// Warm pre-boots n machines into the pool so the first n concurrent
// calls pay no boot cost at all — a registry keeping per-image warm pools
// calls this when an image is admitted, moving even the snapshot memcpy
// off the serving path. Each warmed machine is kept: the pool holds n
// more machines through a GC. Warming is best-effort: a boot failure
// stops the fill and is returned, but machines already warmed stay usable.
func (p *Pool) Warm(n int) error {
	for i := 0; i < n; i++ {
		m, err := p.img.NewMachine()
		if err != nil {
			return err
		}
		p.mu.Lock()
		if !p.released.Load() {
			p.kept = append(p.kept, m)
		}
		p.mu.Unlock()
		p.recycle(m)
	}
	return nil
}

// Entry returns the image program's start descriptor.
func (p *Pool) Entry() Word { return p.img.Entry() }

// Get returns a machine booted at the image's snapshot, ready to Call:
// one from the sync.Pool, else an idle kept machine the sync.Pool has lost
// (to another P's cache, or a GC), else a new one. A kept machine can be
// reached both ways, so each is taken by a claim that only one caller
// wins (core.ClaimIdle). Get on a released pool still boots a working
// machine. The caller must hand it back with Put (even after a failed run
// — Put restores boot state regardless). Most callers want Call instead.
func (p *Pool) Get() (*Machine, error) {
	for v := p.idle.Get(); v != nil; v = p.idle.Get() {
		if m := v.(*Machine); core.ClaimIdle(m) {
			return m, nil
		}
	}
	p.mu.Lock()
	for _, m := range p.kept {
		if core.ClaimIdle(m) {
			p.mu.Unlock()
			return m, nil
		}
	}
	p.mu.Unlock()
	return p.img.NewMachine()
}

// Put merges the machine's metrics into the pool aggregate, resets it to
// boot state and caches it; once the pool has been released, Put releases
// the machine instead. The machine must have come from Get on this pool.
// The merge reads the machine's own counters under the pool's lock, so it
// copies nothing.
func (p *Pool) Put(m *Machine) {
	p.mu.Lock()
	m.MergeMetricsInto(&p.agg)
	p.runs++
	p.mu.Unlock()
	m.Reset()
	p.recycle(m)
}

// recycle marks a machine at boot state idle and caches it. On a released
// pool it releases the machine instead, unless Release claimed it first.
func (p *Pool) recycle(m *Machine) {
	core.MarkIdle(m)
	if p.released.Load() {
		if core.ClaimIdle(m) {
			m.Release()
		}
		return
	}
	p.idle.Put(m)
}

// Release gives up the pool's idle machines: each kept one, and each the
// sync.Pool hands back, is claimed and released, so its zeroed store
// boots the next machine over any image (Machine.Release); a machine that
// another P's sync.Pool slot holds is left to the GC. A machine checked
// out now is released when Put returns it. The pool stays usable: Get
// boots a new machine, which Put releases in turn, so runs already routed
// to the pool finish. Release does not touch the aggregate metrics.
func (p *Pool) Release() {
	p.released.Store(true)
	p.mu.Lock()
	kept := p.kept
	p.kept = nil
	p.mu.Unlock()
	for _, m := range kept {
		if core.ClaimIdle(m) {
			m.Release()
		}
	}
	for v := p.idle.Get(); v != nil; v = p.idle.Get() {
		if m := v.(*Machine); core.ClaimIdle(m) {
			m.Release()
		}
	}
}

// CallResult is everything one pooled run produced: the results record,
// a copy of the output stream (the OUT instruction), and the run's
// executed instructions, total cycles and charged references — the
// Instructions, Cycles and ChargedRefs of its Metrics. The counters are
// set even when the run failed: a budget-cut or canceled run did real
// work, and the same work is merged into the pool aggregate, so summing
// them over every completed call reproduces those three fields of
// Pool.Metrics exactly. A caller that needs a run's full Metrics takes
// them with Machine.Metrics between Get and Put.
type CallResult struct {
	Results []Word
	Output  []Word
	Steps   uint64
	Cycles  uint64
	Refs    uint64
}

// Call runs one procedure call to desc on a pooled machine and returns
// its results. Safe for concurrent use from many goroutines; each call
// runs on its own machine over the shared image. Runs that fail are still
// accounted (the work was done) and the machine is still recycled — Reset
// restores boot state from the snapshot no matter how the run ended.
func (p *Pool) Call(desc Word, args ...Word) ([]Word, error) {
	cr, err := p.CallContext(context.Background(), desc, 0, time.Time{}, args...)
	if cr == nil {
		return nil, err
	}
	return cr.Results, err
}

// CallContext is the serving-layer entry point: the run is bounded by
// budget (0 = machine default, Config.MaxSteps; a run that exceeds it
// fails with an error wrapping ErrMaxSteps) and by the wall-clock
// deadline (the zero time sets none), and cut when ctx is canceled or
// its own deadline passes. Those cuts fail with an error wrapping
// ErrCanceled whose text ends in the cause, "context deadline exceeded"
// for either deadline. The machine's cancel probe compares the deadline
// and asks ctx.Err itself every 1024 instructions, so the deadline arms
// no timer and installing ctx allocates nothing. The returned CallResult
// is non-nil whenever a machine actually ran — even on failure —
// carrying the run's results, output and counters for per-request
// accounting.
//
// The machine is recycled (its metrics merged into the aggregate, then
// reset, clearing the per-run bounds) no matter how the run ended. The
// recycle is deferred so even a panicking run (a panicking Config.Trap
// handler or cancel hook) hands its machine and metrics back before the
// panic propagates — a pooled machine can never leak.
func (p *Pool) CallContext(ctx context.Context, desc Word, budget uint64, deadline time.Time, args ...Word) (*CallResult, error) {
	m, err := p.Get()
	if err != nil {
		return nil, err
	}
	defer p.Put(m)
	if budget > 0 {
		m.SetRunBudget(budget)
	}
	if !deadline.IsZero() {
		m.SetDeadline(deadline)
	}
	if ctx != nil && ctx.Done() != nil {
		m.SetCancel(ctx)
	}
	results, err := m.Call(desc, args...)
	cr := &CallResult{Results: results, Output: append([]Word(nil), m.Output...)}
	cr.Steps, cr.Cycles, cr.Refs = m.Counts()
	return cr, err
}

// Metrics returns a copy of the aggregate metrics of every completed run
// (merged at Put time). It does not include machines currently checked
// out.
func (p *Pool) Metrics() *Metrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.agg.Clone()
}

// Runs reports how many machine runs have been merged into the aggregate.
func (p *Pool) Runs() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runs
}
