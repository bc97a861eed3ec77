package fpc

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
)

// Pool serves procedure calls concurrently over one shared LoadedImage: a
// sync.Pool of machines, each reset to the image's boot snapshot between
// runs instead of being re-linked and re-booted. Pool.Call is safe for
// concurrent use from any number of goroutines; the pool grows to the
// offered parallelism and shrinks under GC pressure like any sync.Pool.
//
// The pool keeps aggregate accounting: each machine's Metrics are merged
// into a pool-wide record when the machine is returned, so a serving
// process can report the same counters (cycles, references, fast-transfer
// fraction) as a single-machine experiment.
type Pool struct {
	img  *LoadedImage
	pool sync.Pool

	mu   sync.Mutex
	agg  core.Metrics
	runs uint64
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
	return &Pool{img: img}
}

// Image returns the shared immutable image.
func (p *Pool) Image() *LoadedImage { return p.img }

// Warm pre-boots n machines into the pool so the first n concurrent
// calls pay no boot cost at all — a registry keeping per-image warm pools
// calls this when an image is admitted, moving even the snapshot memcpy
// off the serving path. Warming is best-effort: a boot failure stops the
// fill and is returned, but machines already warmed stay usable.
func (p *Pool) Warm(n int) error {
	for i := 0; i < n; i++ {
		m, err := p.img.NewMachine()
		if err != nil {
			return err
		}
		p.pool.Put(m)
	}
	return nil
}

// Entry returns the image program's start descriptor.
func (p *Pool) Entry() Word { return p.img.Entry() }

// Get returns a machine booted at the image's snapshot, ready to Call.
// The caller must hand it back with Put (even after a failed run — Put
// restores boot state regardless). Most callers want Call instead.
func (p *Pool) Get() (*Machine, error) {
	if v := p.pool.Get(); v != nil {
		return v.(*Machine), nil
	}
	return p.img.NewMachine()
}

// Put merges the machine's metrics into the pool aggregate, resets it to
// boot state, and recycles it. The machine must have come from Get on
// this pool. The merge reads the machine's own counters under the pool's
// lock, so it copies nothing.
func (p *Pool) Put(m *Machine) {
	p.mu.Lock()
	m.MergeMetricsInto(&p.agg)
	p.runs++
	p.mu.Unlock()
	m.Reset()
	p.pool.Put(m)
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
