package difffuzz

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/linker"
	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/workload"
)

// FuzzDifferential is the main campaign: each fuzz input is a generator
// seed; the derived program runs through the full four-way differential
// and every metamorphic invariant. Run it with
//
//	go test -fuzz=FuzzDifferential ./internal/difffuzz -fuzztime=30s
//
// A failing seed is minimized before it is reported, so the failure
// message carries the smallest program the minimizer could keep failing
// with the same kind.
func FuzzDifferential(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := CheckSeed(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzParkResume is the continuation campaign: a generated program is
// parked at a fuzzer-chosen instruction boundary — anywhere in the run,
// including mid-coroutine transfer chains and inside armed trap handlers —
// its continuation round-tripped through the wire codec, and resumed on a
// fresh machine. The segmented run must be byte-identical to the
// uninterrupted one. A second cut derived from the first exercises
// park-of-a-resumed-run (the /session re-park path).
func FuzzParkResume(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint16(seed*131+7))
	}
	f.Fuzz(func(t *testing.T, seed int64, rawCut uint16) {
		p := workload.RandomProgram(seed)
		cfg := fpc.ConfigFastCalls
		cfg.HeapCheck = true
		prog, _, err := p.Build(fpc.DefaultLinkOptions(cfg))
		if err != nil {
			t.Skip("unbuildable seed")
		}
		img, err := core.LoadImage(prog, cfg)
		if err != nil {
			t.Skip("unloadable seed")
		}
		fresh, err := img.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		wantRes, runErr := fresh.Call(img.Entry(), p.Args...)
		if runErr != nil {
			t.Skip("seed does not complete under default limits")
		}
		freshRec := record{results: wantRes, output: append([]mem.Word(nil), fresh.Output...)}
		total := fresh.Metrics().Instructions
		if total < 2 {
			t.Skip("too short to interrupt")
		}
		// First cut anywhere in (0, total); second halfway between it and
		// the end, when that gap exists.
		cuts := []uint64{1 + uint64(rawCut)%(total-1)}
		if second := cuts[0] + (total-cuts[0])/2; second > cuts[0] && second < total {
			cuts = append(cuts, second)
		}
		if err := parkResumeChain(img, p.Args, "fastcalls", freshRec, fresh.Metrics(), cuts); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzPoolReuse drives one shared Pool with a random mix of full,
// budget-cut, and repeated calls of a generated program, then checks the
// pool's aggregate bookkeeping: every run merged (Runs exact), the
// aggregate exactly the sum of the per-call metrics, and a machine that
// served a cut run serving the next full run identically.
func FuzzPoolReuse(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint16(1+seed*37), uint8(seed%5))
	}
	f.Fuzz(func(t *testing.T, seed int64, rawBudget uint16, extra uint8) {
		p := workload.RandomProgram(seed)
		cfg := fpc.ConfigFastCalls
		prog, _, err := p.Build(fpc.DefaultLinkOptions(cfg))
		if err != nil {
			t.Skip("unbuildable seed")
		}
		img, err := fpc.LoadImage(prog, cfg)
		if err != nil {
			t.Skip("unloadable seed")
		}
		entry := img.Entry()

		// The reference answer for a full run, from a fresh machine.
		fresh, err := img.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		wantRes, runErr := fresh.Call(entry, p.Args...)
		if runErr != nil {
			t.Skip("seed does not complete under default limits")
		}
		wantOut := append([]fpc.Word(nil), fresh.Output...)
		total := fresh.Metrics().Instructions

		// Each run is served twice, as in checkMetamorphic's Pool phase:
		// through Get/Put, which reads its full Metrics, and through
		// CallContext, whose counters must equal them.
		pool := fpc.NewPoolFromImage(img)
		runs := 2 + int(extra)
		budget := uint64(rawBudget)
		sum := &core.Metrics{}
		for i := 0; i < runs; i++ {
			b := uint64(0)
			if i%2 == 1 {
				b = budget
			}
			got, met, err := pooledRun(pool, entry, b, p.Args)
			if met == nil {
				t.Fatalf("run %d: no machine: %v", i, err)
			}
			cr, cerr := pool.CallContext(nil, entry, b, time.Time{}, p.Args...)
			if cr == nil {
				t.Fatalf("run %d: no CallResult (err=%v)", i, cerr)
			}
			if !sameCounts(cr, met) {
				t.Fatalf("run %d: CallContext counted %d/%d/%d, Get/Put %d/%d/%d",
					i, cr.Steps, cr.Cycles, cr.Refs, met.Instructions, met.Cycles, met.ChargedRefs)
			}
			sum.Merge(met)
			sum.Merge(met)
			// Odd runs are budget-bounded: either they complete (budget 0
			// means the machine default, and any budget >= total is roomy
			// enough) or they are cut with ErrMaxSteps after exactly budget
			// instructions. Even runs are full runs on a recycled machine and
			// must replay the fresh run byte for byte, even right after a
			// budget-cut run.
			cut := i%2 == 1 && budget != 0 && budget < total
			if cut && met.Instructions != budget {
				t.Fatalf("run %d: cut after %d instructions, want exactly %d", i, met.Instructions, budget)
			}
			if i%2 == 0 && met.Instructions != total {
				t.Fatalf("run %d: %d instructions, fresh machine had %d", i, met.Instructions, total)
			}
			for _, r := range []struct {
				rec record
				err error
			}{{got, err}, {record{results: cr.Results, output: cr.Output}, cerr}} {
				switch {
				case cut:
					if !errors.Is(r.err, fpc.ErrMaxSteps) {
						t.Fatalf("run %d: want ErrMaxSteps under budget %d < %d, got %v", i, budget, total, r.err)
					}
				case r.err != nil:
					t.Fatalf("run %d: budget %d (total %d) but err=%v", i, b, total, r.err)
				case i%2 == 0 && !wordsEqual(r.rec.results, wantRes):
					t.Fatalf("run %d: results %v, fresh machine had %v", i, r.rec.results, wantRes)
				case i%2 == 0 && !wordsEqual(r.rec.output, wantOut):
					t.Fatalf("run %d: output diverged from fresh machine", i)
				}
			}
		}
		if got := pool.Runs(); got != uint64(2*runs) {
			t.Fatalf("pool.Runs() = %d, want %d", got, 2*runs)
		}
		agg := pool.Metrics()
		if !reflect.DeepEqual(agg, sum) {
			t.Fatalf("pool aggregate %+v != sum of per-run metrics %+v", *agg, *sum)
		}
	})
}

// FuzzVerify feeds the static verifier linked images whose bytes the
// compiler did not write: a generated program (seed modulo 400, either
// linkage) with code bytes and data words overwritten from the fuzz input
// (see mutate). The verifier must never panic, and every run of an
// admitted mutant must end in results or a machine error, never a Go
// panic. The checked-in linkage-* seeds each overwrite one linkage word
// that the verifier holds to the instance metadata
// (internal/verify/linkage.go); the other three are admitted mutants that
// once panicked the machine.
//
//	go test -fuzz=FuzzVerify ./internal/difffuzz -fuzztime=30s
func FuzzVerify(f *testing.F) {
	for seed := uint16(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 1, []byte{byte(seed), byte(seed * 37), 0, byte(seed * 11), 0})
	}
	f.Fuzz(func(t *testing.T, seed uint16, early bool, muts []byte) {
		if err := checkMutant(int64(seed%400), early, muts); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzBuild feeds arbitrary bytes as one module's source, with a
// "module.proc" entry name as /run takes it, through the frontend, the
// linker, the verifier and a registry submit. Errors are fine; a panic
// fails the target. The registry keeps at most a few images, so a long
// campaign's memory stays flat. Seeds are the corpus programs' entry
// modules and a few generated programs.
//
//	go test -fuzz=FuzzBuild ./internal/difffuzz -fuzztime=30s
func FuzzBuild(f *testing.F) {
	progs := workload.Corpus()
	for seed := int64(0); seed < 4; seed++ {
		progs = append(progs, workload.RandomProgram(seed))
	}
	for _, p := range progs {
		f.Add(p.Sources[p.Module], p.Module+"."+p.Proc)
	}
	reg := registry.New(registry.Config{Machine: fpc.ConfigFastCalls, Verify: true, MaxImages: 4})
	f.Fuzz(func(t *testing.T, src, entry string) {
		mod, proc, ok := strings.Cut(entry, ".")
		if !ok {
			return
		}
		prog, err := fpc.Build(map[string]string{mod: src}, mod, proc, fpc.LinkOptions{})
		if err != nil {
			return
		}
		reg.Submit(prog)
	})
}

// mutantSteps caps every run of an admitted mutant: overwritten bytes can
// turn any loop infinite.
const mutantSteps = 200_000

// maxMutations bounds how many overwrites one fuzz input applies.
const maxMutations = 8

// mutate returns a copy of prog with overwrites decoded from muts, five
// bytes per overwrite: a kind byte (even: code byte, odd: data word), a
// little-endian 16-bit index (taken modulo the code length or the number
// of initialized data words) and a little-endian 16-bit value (a code
// overwrite keeps the low byte). The instance metadata is shared, so the
// copy describes linkage its own bytes may no longer hold.
func mutate(prog *image.Program, muts []byte) *image.Program {
	out := &image.Program{
		Code:       append([]byte(nil), prog.Code...),
		Data:       append([]image.DataWord(nil), prog.Data...),
		FrameSizes: prog.FrameSizes,
		HeapBase:   prog.HeapBase,
		Entry:      prog.Entry,
		Instances:  prog.Instances,
		Symbols:    prog.Symbols,
	}
	for n := 0; n < maxMutations && len(muts) >= 5; n, muts = n+1, muts[5:] {
		idx := int(muts[1]) | int(muts[2])<<8
		val := mem.Word(muts[3]) | mem.Word(muts[4])<<8
		if muts[0]&1 == 0 && len(out.Code) > 0 {
			out.Code[idx%len(out.Code)] = byte(val)
		} else if muts[0]&1 == 1 && len(out.Data) > 0 {
			out.Data[idx%len(out.Data)].Val = val
		}
	}
	return out
}

// mutantBase is one (seed, linkage) build FuzzVerify mutates.
type mutantBase struct {
	p     *workload.Program
	built *image.Program
	err   error
}

// mutantBases caches the builds per fuzz worker process: FuzzVerify draws
// from only 800 of them (400 seeds, two linkages), and mutate copies the
// bytes it overwrites, so a build is shared read-only.
var mutantBases sync.Map // mutantKey -> *mutantBase

type mutantKey struct {
	seed  int64
	early bool
}

func mutantBuild(seed int64, early bool) *mutantBase {
	k := mutantKey{seed, early}
	if b, ok := mutantBases.Load(k); ok {
		return b.(*mutantBase)
	}
	b := &mutantBase{p: workload.RandomProgram(seed)}
	b.built, _, b.err = b.p.Build(linker.Options{EarlyBind: early})
	mutantBases.Store(k, b)
	return b
}

// checkMutant is the verifier's hostile-input oracle. It builds
// RandomProgram(seed) under the given linkage (once per process), applies
// mutate, and verifies the result; the verifier must not panic. An
// admitted mutant then runs on the Mesa and FastCalls machines under a
// step cap, and each run must end in results or a machine error, never a
// Go panic: admission has to hold for bytes the compiler did not write.
func checkMutant(seed int64, early bool, muts []byte) error {
	base := mutantBuild(seed, early)
	if base.err != nil {
		return failf(KindBuild, "early=%v: %v", early, base.err)
	}
	p := base.p
	prog := mutate(base.built, muts)
	rep, err := safeVerify(prog)
	if err != nil {
		return err
	}
	if !rep.Admitted() {
		return nil
	}
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{{"mesa", core.ConfigMesa}, {"fastcalls", core.ConfigFastCalls}} {
		cfg := c.cfg
		cfg.HeapCheck = true
		cfg.MaxSteps = mutantSteps
		img, err := core.LoadImage(prog, cfg)
		if err != nil {
			return nil // the loader refuses the mutant outright
		}
		name := fmt.Sprintf("%s seed=%d mutant=%x", c.name, seed, muts)
		if err := runNoPanic(name, early, img, p); err != nil {
			return err
		}
	}
	return nil
}

// runNoPanic runs p on a fresh machine over img. Results and machine
// errors both pass; a Go panic fails the oracle.
func runNoPanic(name string, early bool, img *core.LoadedImage, p *workload.Program) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = failf(KindPanic, "%s early=%v: admitted run panicked: %v", name, early, r)
		}
	}()
	runFresh(img, p)
	return nil
}
