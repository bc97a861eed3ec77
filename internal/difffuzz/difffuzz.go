// Package difffuzz is the differential fuzzing subsystem: every generated
// or corpus program is checked four ways — the I1 reference interpreter
// (internal/interp) against the Simple/Mesa (I2), FastFetch (I3) and
// FastCalls (I4) machine configurations — under both linkage policies,
// asserting identical results, output records and halt state. On top of
// the plain four-way differential, a battery of metamorphic invariants
// checks the serving-layer machinery the paper's claims now rest on:
//
//   - a Reset-reused machine is byte-identical to a fresh boot: right
//     after Reset, all 64K data words and the allocator registers; after
//     the re-run, results, output and every metrics counter;
//   - a run budget-cut at N instructions stops at exactly N, and the same
//     machine Reset and re-run from scratch reproduces the uncut run;
//   - a huge (near-overflow) budget never cuts a healthy run;
//   - an armed-but-quiet cancellation probe perturbs nothing;
//   - a Pool's aggregate metrics equal the exact sum of its per-run
//     metrics, failed runs included;
//   - the fast-transfer count (calls+returns at unconditional-jump cost)
//     only improves I2 → I3 → I4 on the same early-bound build;
//   - the predecoded instruction table (isa.Predecode, the decode-once
//     engine's input) agrees with isa.Decode at every byte offset of every
//     built image — opcode, length, folded operand, jump target, call
//     header and the exact error text of every undecodable slot;
//   - driving a machine one Step at a time reproduces the Run-driven
//     machine exactly: results, output and every metrics counter;
//   - a run parked at arbitrary instruction boundaries (core.Snapshot),
//     round-tripped through the continuation wire codec, and resumed on
//     different machines is byte-identical to the uninterrupted run —
//     results, output, halt state and the merge of per-segment metrics;
//   - the static verifier admits every program the compiler and linker
//     emit, under both linkage policies.
//
// The paper asserts (§6, §8) that the optimized implementations "behave
// identically — only space and speed change"; this package turns that
// assertion into a continuously fuzzed invariant.
package difffuzz

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	fpc "repro"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
	"repro/internal/verify"
	"repro/internal/workload"
)

// FailKind classifies an oracle failure; the minimizer only accepts
// shrunken candidates that fail the same way, so a delta step that merely
// breaks compilation is rejected rather than mistaken for the bug.
type FailKind string

// Failure kinds.
const (
	KindBuild        FailKind = "build"        // generated program fails to parse/compile/link
	KindReference    FailKind = "reference"    // the I1 interpreter fails
	KindRun          FailKind = "run"          // a machine configuration fails to run
	KindDiverge      FailKind = "diverge"      // results/output/halt state differ from I1
	KindReset        FailKind = "reset"        // Reset-reuse not byte-identical to fresh
	KindBudget       FailKind = "budget"       // budget-cut / resume-from-scratch inconsistency
	KindCancel       FailKind = "cancel"       // an armed quiet probe perturbed the run
	KindPool         FailKind = "pool"         // pool aggregate != Σ per-run metrics
	KindInvariant    FailKind = "invariant"    // heap shadow invariant violated
	KindMonotonicity FailKind = "monotonicity" // fast transfers regressed I2→I3→I4
	KindPredecode    FailKind = "predecode"    // predecoded table disagrees with byte-at-a-time Decode
	KindStepRun      FailKind = "steprun"      // Step-driven execution diverges from Run-driven
	KindVerify       FailKind = "verify"       // static verifier rejects (or panics on) compiler output
	KindPanic        FailKind = "panic"        // a run of an admitted image panics in Go
	KindParkResume   FailKind = "parkresume"   // park/resume chain not byte-identical to uninterrupted
)

// Failure is one oracle violation.
type Failure struct {
	Kind FailKind
	Msg  string
}

func (f *Failure) Error() string { return fmt.Sprintf("difffuzz[%s]: %s", f.Kind, f.Msg) }

func failf(kind FailKind, format string, args ...interface{}) error {
	return &Failure{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// KindOf extracts the failure kind (empty for nil / foreign errors).
func KindOf(err error) FailKind {
	var f *Failure
	if errors.As(err, &f) {
		return f.Kind
	}
	return ""
}

// configs is the machine sweep: I2, I3, I4.
var configs = []struct {
	name string
	cfg  core.Config
}{
	{"mesa", core.ConfigMesa},
	{"fastfetch", core.ConfigFastFetch},
	{"fastcalls", core.ConfigFastCalls},
}

// record is one run's observable behaviour.
type record struct {
	results []mem.Word
	output  []mem.Word
}

func (r record) equal(o record) bool {
	return wordsEqual(r.results, o.results) && wordsEqual(r.output, o.output)
}

func wordsEqual(a, b []mem.Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reference runs p on the I1 interpreter.
func reference(p *workload.Program) (record, error) {
	parsed, err := p.Parse()
	if err != nil {
		return record{}, failf(KindBuild, "parse: %v", err)
	}
	ip := interp.New(parsed)
	defer ip.Close()
	res, err := ip.Run(p.Module, p.Proc, p.Args...)
	if err != nil {
		return record{}, failf(KindReference, "I1 reference: %v", err)
	}
	return record{results: res, output: append([]mem.Word(nil), ip.Output...)}, nil
}

// runFresh boots one machine over img and runs p once.
func runFresh(img *core.LoadedImage, p *workload.Program) (*core.Machine, record, error) {
	m, err := img.NewMachine()
	if err != nil {
		return nil, record{}, err
	}
	res, err := m.Call(img.Entry(), p.Args...)
	if err != nil {
		return nil, record{}, err
	}
	return m, record{results: res, output: append([]mem.Word(nil), m.Output...)}, nil
}

// Check runs p through the full differential oracle. It returns nil when
// every implementation and every metamorphic invariant agrees, and a
// *Failure describing the first disagreement otherwise.
func Check(p *workload.Program) error {
	ref, err := reference(p)
	if err != nil {
		return err
	}

	// Phase 1: four-way differential, both linkages. I1 is the oracle;
	// every (config, linkage) machine must reproduce results, output and
	// the halted state exactly.
	for _, early := range []bool{false, true} {
		prog, _, err := p.Build(linker.Options{EarlyBind: early})
		if err != nil {
			return failf(KindBuild, "early=%v: %v", early, err)
		}
		// The predecoded table is a pure function of the code bytes, so one
		// check per linkage covers every configuration.
		if err := checkPredecode(prog.Code); err != nil {
			return err
		}
		for _, c := range configs {
			cfg := c.cfg
			cfg.HeapCheck = true
			img, err := core.LoadImage(prog, cfg)
			if err != nil {
				return failf(KindRun, "%s early=%v: load: %v", c.name, early, err)
			}
			m, got, err := runFresh(img, p)
			if err != nil {
				return failf(KindRun, "%s early=%v: %v", c.name, early, err)
			}
			if !m.Halted() {
				return failf(KindDiverge, "%s early=%v: machine not halted after a clean run", c.name, early)
			}
			if !wordsEqual(got.results, ref.results) {
				return failf(KindDiverge, "%s early=%v: results %v, I1 reference %v",
					c.name, early, got.results, ref.results)
			}
			if !wordsEqual(got.output, ref.output) {
				return failf(KindDiverge, "%s early=%v: output %v, I1 reference %v",
					c.name, early, got.output, ref.output)
			}
			if err := m.Heap().CheckInvariants(); err != nil {
				return failf(KindInvariant, "%s early=%v: %v", c.name, early, err)
			}
		}
	}

	// Phase 2: admission completeness.
	if err := checkVerify(p); err != nil {
		return err
	}

	// Phase 3: metamorphic invariants on each configuration under its
	// default (serving) linkage, including the park/resume chain (snapshot
	// at thirds, codec round trip, restore on a fresh machine).
	for _, c := range configs {
		if err := checkMetamorphic(p, c.name, c.cfg, ref); err != nil {
			return err
		}
		if err := checkParkResume(p, c.name, c.cfg, ref); err != nil {
			return err
		}
	}

	// Phase 4: fast-transfer monotonicity on one shared early-bound build.
	return checkMonotone(p)
}

// checkVerify is the admission-completeness oracle: every program the
// compiler and linker emit must be admitted by the verifier, under both
// linkage policies. A rejection here is a verifier false positive.
func checkVerify(p *workload.Program) error {
	for _, early := range []bool{false, true} {
		prog, _, err := p.Build(linker.Options{EarlyBind: early})
		if err != nil {
			return failf(KindBuild, "early=%v: %v", early, err)
		}
		rep, err := safeVerify(prog)
		if err != nil {
			return err
		}
		if !rep.Admitted() {
			return failf(KindVerify, "early=%v: compiler output rejected:\n%s", early, rep)
		}
	}
	return nil
}

// safeVerify shields the oracle from verifier panics: a crash on linker
// output is itself a verifier bug worth minimizing.
func safeVerify(prog *image.Program) (rep *verify.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = failf(KindVerify, "verifier panic: %v", r)
		}
	}()
	return verify.Program(prog), nil
}

// checkPredecode verifies the decode-once engine's input against the
// byte-at-a-time decoder it replaced: at every byte offset of the built
// image, the predecoded slot and isa.Decode must agree — on the opcode,
// the encoded length, the operand after fast-form folding, the absolute
// jump target, the pre-read DIRECTCALL header, and (for slots where no
// instruction decodes) the exact error text.
func checkPredecode(code []byte) error {
	insts, err := isa.Predecode(code)
	if err != nil {
		return failf(KindPredecode, "Predecode: %v", err)
	}
	if len(insts) != len(code) {
		return failf(KindPredecode, "table has %d slots for %d code bytes", len(insts), len(code))
	}
	for pc := range code {
		in := &insts[pc]
		dec, n, derr := isa.Decode(code, pc)
		if derr != nil {
			if in.Valid() {
				return failf(KindPredecode, "pc %d: slot decodes %v where Decode fails: %v", pc, in.Op, derr)
			}
			perr := in.Err(code, pc)
			if perr == nil || perr.Error() != derr.Error() {
				return failf(KindPredecode, "pc %d: slot error %q, Decode error %q", pc, perr, derr)
			}
			continue
		}
		if !in.Valid() {
			return failf(KindPredecode, "pc %d: slot invalid where Decode reads %v", pc, dec.Op)
		}
		if in.Op != dec.Op || int(in.Size) != n {
			return failf(KindPredecode, "pc %d: slot %v/%d, Decode %v/%d", pc, in.Op, in.Size, dec.Op, n)
		}
		want := dec.Arg
		if info := isa.InfoOf(dec.Op); info.HasEmb {
			want = info.EmbArg
		}
		if in.Arg != want {
			return failf(KindPredecode, "pc %d: %v operand %d, want %d", pc, in.Op, in.Arg, want)
		}
		switch {
		case dec.Op.IsJump():
			if in.Target != uint32(int64(pc)+int64(want)) {
				return failf(KindPredecode, "pc %d: %v target %d, want %d",
					pc, in.Op, in.Target, uint32(int64(pc)+int64(want)))
			}
		case dec.Op == isa.DCALL, dec.Op == isa.SDCALL:
			hdr := uint32(want)
			if dec.Op == isa.SDCALL {
				hdr = uint32(int64(pc) + int64(want))
			}
			if in.Target != hdr {
				return failf(KindPredecode, "pc %d: %v header addr %d, want %d", pc, in.Op, in.Target, hdr)
			}
			ok := int64(hdr)+2 < int64(len(code))
			if in.CallOK != ok {
				return failf(KindPredecode, "pc %d: %v CallOK=%v, header %d in %d code bytes",
					pc, in.Op, in.CallOK, hdr, len(code))
			}
			if ok {
				gf := uint16(code[hdr]) | uint16(code[hdr+1])<<8
				if in.GF != gf || in.FSI != code[hdr+2] {
					return failf(KindPredecode, "pc %d: %v header GF/FSI %d/%d, code says %d/%d",
						pc, in.Op, in.GF, in.FSI, gf, code[hdr+2])
				}
			}
		}
	}
	return nil
}

// checkMetamorphic runs the reuse / budget / cancel / pool invariants for
// one configuration.
func checkMetamorphic(p *workload.Program, name string, cfg core.Config, ref record) error {
	prog, _, err := p.Build(fpc.DefaultLinkOptions(cfg))
	if err != nil {
		return failf(KindBuild, "%s default linkage: %v", name, err)
	}
	img, err := core.LoadImage(prog, cfg)
	if err != nil {
		return failf(KindRun, "%s: load: %v", name, err)
	}
	fresh, freshRec, err := runFresh(img, p)
	if err != nil {
		return failf(KindRun, "%s: %v", name, err)
	}
	if !freshRec.equal(ref) {
		return failf(KindDiverge, "%s default linkage: %v/%v, I1 reference %v/%v",
			name, freshRec.results, freshRec.output, ref.results, ref.output)
	}
	freshMet := fresh.Metrics()

	// Step vs Run: driving the same image one Step at a time must
	// reproduce the Run-driven machine exactly — results, output and every
	// metrics counter — since Step and Run's inner loop share the handler
	// table.
	stepped, err := img.NewMachine()
	if err != nil {
		return failf(KindRun, "%s: %v", name, err)
	}
	if err := stepped.Start(img.Entry(), p.Args...); err != nil {
		return failf(KindStepRun, "%s: Start: %v", name, err)
	}
	for i := uint64(0); !stepped.Halted(); i++ {
		if i > freshMet.Instructions {
			return failf(KindStepRun, "%s: step-driven run past %d instructions without halting",
				name, freshMet.Instructions)
		}
		if err := stepped.Step(); err != nil {
			return failf(KindStepRun, "%s: step %d: %v", name, i, err)
		}
	}
	steppedRec := record{results: stepped.Results(), output: append([]mem.Word(nil), stepped.Output...)}
	if !steppedRec.equal(freshRec) {
		return failf(KindStepRun, "%s: stepped %v/%v, run %v/%v",
			name, steppedRec.results, steppedRec.output, freshRec.results, freshRec.output)
	}
	if !reflect.DeepEqual(stepped.Metrics(), freshMet) {
		return failf(KindStepRun, "%s: stepped metrics diverge from run:\nstepped %+v\nrun     %+v",
			name, stepped.Metrics(), freshMet)
	}

	// Reset reuse: dirty the machine and Reset it — every data word and
	// the allocator registers back to a fresh boot's — then re-run,
	// byte-identical to the fresh boot in results, output and every
	// metrics counter.
	reused, _, err := runFresh(img, p)
	if err != nil {
		return failf(KindRun, "%s (pre-reuse): %v", name, err)
	}
	boot, err := img.NewMachine()
	if err != nil {
		return failf(KindRun, "%s: %v", name, err)
	}
	reused.Reset()
	got, want := reused.Mem().PeekRange(0, mem.Size), boot.Mem().PeekRange(0, mem.Size)
	for a := range got {
		if got[a] != want[a] {
			return failf(KindReset, "%s: word %04x = %04x after Reset, boot image %04x", name, a, got[a], want[a])
		}
	}
	if hs, hb := reused.Heap().State(), boot.Heap().State(); !reflect.DeepEqual(hs, hb) {
		return failf(KindReset, "%s: allocator after Reset %+v, boot %+v", name, hs, hb)
	}
	res, err := reused.Call(img.Entry(), p.Args...)
	if err != nil {
		return failf(KindReset, "%s: reused run failed: %v", name, err)
	}
	reusedRec := record{results: res, output: append([]mem.Word(nil), reused.Output...)}
	if !reusedRec.equal(freshRec) {
		return failf(KindReset, "%s: reused %v/%v, fresh %v/%v",
			name, reusedRec.results, reusedRec.output, freshRec.results, freshRec.output)
	}
	if !reflect.DeepEqual(reused.Metrics(), freshMet) {
		return failf(KindReset, "%s: reused metrics diverge from fresh:\nreused %+v\nfresh  %+v",
			name, reused.Metrics(), freshMet)
	}

	// Budget: cut at half the run, verify the cut is exact, then Reset and
	// re-run from scratch — consistent with the uncut run.
	total := freshMet.Instructions
	if half := total / 2; half > 0 && half < total {
		cut, err := img.NewMachine()
		if err != nil {
			return failf(KindRun, "%s: %v", name, err)
		}
		cut.SetRunBudget(half)
		if _, err := cut.Call(img.Entry(), p.Args...); !errors.Is(err, core.ErrMaxSteps) {
			return failf(KindBudget, "%s: budget %d of %d: err = %v, want ErrMaxSteps",
				name, half, total, err)
		}
		if got := cut.Metrics().Instructions; got != half {
			return failf(KindBudget, "%s: budget %d cut after %d instructions", name, half, got)
		}
		if cut.Halted() {
			return failf(KindBudget, "%s: budget-cut machine reports halted", name)
		}
		cut.Reset()
		res, err := cut.Call(img.Entry(), p.Args...)
		if err != nil {
			return failf(KindBudget, "%s: post-cut rerun failed: %v", name, err)
		}
		rerun := record{results: res, output: append([]mem.Word(nil), cut.Output...)}
		if !rerun.equal(freshRec) {
			return failf(KindBudget, "%s: post-cut rerun %v/%v, fresh %v/%v",
				name, rerun.results, rerun.output, freshRec.results, freshRec.output)
		}
		if !reflect.DeepEqual(cut.Metrics(), freshMet) {
			return failf(KindBudget, "%s: post-cut rerun metrics diverge from fresh", name)
		}
	}

	// An exact budget admits the run; a near-overflow budget must not wrap
	// into a spurious cut.
	for _, budget := range []uint64{total, ^uint64(0) - 1} {
		m, err := img.NewMachine()
		if err != nil {
			return failf(KindRun, "%s: %v", name, err)
		}
		m.SetRunBudget(budget)
		if _, err := m.Call(img.Entry(), p.Args...); err != nil {
			return failf(KindBudget, "%s: budget %d failed a %d-instruction run: %v",
				name, budget, total, err)
		}
	}

	// A quiet cancel hook and a distant deadline must not perturb results
	// or metrics.
	probed, err := img.NewMachine()
	if err != nil {
		return failf(KindRun, "%s: %v", name, err)
	}
	var hook countingHook
	probed.SetCancel(&hook)
	probed.SetDeadline(time.Now().Add(time.Hour))
	res, err = probed.Call(img.Entry(), p.Args...)
	if err != nil {
		return failf(KindCancel, "%s: probed run failed: %v", name, err)
	}
	probedRec := record{results: res, output: append([]mem.Word(nil), probed.Output...)}
	if !probedRec.equal(freshRec) || !reflect.DeepEqual(probed.Metrics(), freshMet) {
		return failf(KindCancel, "%s: armed quiet probe perturbed the run", name)
	}
	if hook.calls == 0 {
		return failf(KindCancel, "%s: cancel probe never fired", name)
	}

	// Pool: the aggregate must equal the exact sum of per-run metrics —
	// budget-cut runs included — and every completed run the reference.
	// Each run is served twice: through Get/Put, which reads its full
	// Metrics on the machine, and through CallContext, whose counters must
	// equal them. Both merge into the aggregate.
	pool := fpc.NewPoolFromImage(img)
	var sum core.Metrics
	const runs = 3
	for i := 0; i < runs; i++ {
		budget := uint64(0)
		if i == 1 && total/2 > 0 {
			budget = total / 2 // one deliberately cut run in the middle
		}
		got, met, err := pooledRun(pool, img.Entry(), budget, p.Args)
		if met == nil {
			return failf(KindPool, "%s: run %d got no machine: %v", name, i, err)
		}
		cr, cerr := pool.CallContext(nil, img.Entry(), budget, time.Time{}, p.Args...)
		if cr == nil {
			return failf(KindPool, "%s: run %d lost its CallResult (err=%v)", name, i, cerr)
		}
		if !sameCounts(cr, met) {
			return failf(KindPool, "%s: run %d CallContext counted %d/%d/%d, Get/Put %d/%d/%d",
				name, i, cr.Steps, cr.Cycles, cr.Refs, met.Instructions, met.Cycles, met.ChargedRefs)
		}
		for _, r := range []struct {
			rec record
			err error
		}{{got, err}, {record{results: cr.Results, output: cr.Output}, cerr}} {
			if budget == 0 {
				if r.err != nil {
					return failf(KindPool, "%s: pooled run %d failed: %v", name, i, r.err)
				}
				if !r.rec.equal(freshRec) {
					return failf(KindPool, "%s: pooled run %d %v/%v, fresh %v/%v",
						name, i, r.rec.results, r.rec.output, freshRec.results, freshRec.output)
				}
			} else if !errors.Is(r.err, core.ErrMaxSteps) {
				return failf(KindPool, "%s: budgeted pooled run: err = %v, want ErrMaxSteps", name, r.err)
			}
		}
		sum.Merge(met)
		sum.Merge(met)
	}
	if pool.Runs() != 2*runs {
		return failf(KindPool, "%s: pool Runs = %d, want %d", name, pool.Runs(), 2*runs)
	}
	if !reflect.DeepEqual(pool.Metrics(), sum.Clone()) {
		return failf(KindPool, "%s: pool aggregate != Σ per-run metrics:\nagg %+v\nsum %+v",
			name, pool.Metrics(), &sum)
	}
	return nil
}

// pooledRun runs entry on a machine taken from pool with Get and handed
// back with Put, returning the run's record and error and its full
// Metrics, read on the machine before Put merges them into the aggregate.
// The Metrics are nil only when Get failed.
func pooledRun(pool *fpc.Pool, entry mem.Word, budget uint64, args []mem.Word) (record, *core.Metrics, error) {
	m, err := pool.Get()
	if err != nil {
		return record{}, nil, err
	}
	defer pool.Put(m)
	if budget > 0 {
		m.SetRunBudget(budget)
	}
	res, err := m.Call(entry, args...)
	return record{results: res, output: append([]mem.Word(nil), m.Output...)}, m.Metrics(), err
}

// countingHook is a quiet cancel hook: it counts its calls and never
// cuts the run.
type countingHook struct{ calls int }

func (h *countingHook) Err() error { h.calls++; return nil }

// sameCounts reports whether a CallContext result carries met's executed
// instructions, cycles and charged references.
func sameCounts(cr *fpc.CallResult, met *core.Metrics) bool {
	return cr.Steps == met.Instructions && cr.Cycles == met.Cycles && cr.Refs == met.ChargedRefs
}

// checkMonotone verifies the paper's speed ordering as a behavioural
// invariant: on the same early-bound build, the number of calls+returns
// served at unconditional-jump cost never shrinks as hardware is added
// (I2 → I3 → I4), and the call/return event count itself is identical —
// the optimizations change cost, never control structure.
func checkMonotone(p *workload.Program) error {
	prog, _, err := p.Build(linker.Options{EarlyBind: true})
	if err != nil {
		return failf(KindBuild, "early-bound build: %v", err)
	}
	var fast [3]uint64
	var events [3]uint64
	for i, c := range configs {
		img, err := core.LoadImage(prog, c.cfg)
		if err != nil {
			return failf(KindRun, "%s: load: %v", c.name, err)
		}
		m, _, err := runFresh(img, p)
		if err != nil {
			return failf(KindRun, "%s: %v", c.name, err)
		}
		met := m.Metrics()
		fast[i] = met.FastTransfers
		events[i] = met.CallsAndReturns()
	}
	if events[0] != events[1] || events[1] != events[2] {
		return failf(KindMonotonicity, "call/return event counts differ across configs: %v", events)
	}
	if fast[0] > fast[1] || fast[1] > fast[2] {
		return failf(KindMonotonicity,
			"fast transfers regressed across I2→I3→I4: mesa=%d fastfetch=%d fastcalls=%d of %d events",
			fast[0], fast[1], fast[2], events[0])
	}
	return nil
}

// CheckSeed generates the random program for seed and runs it through the
// oracle. On failure the program's minimized source is folded into the
// error so a fuzz crash report is directly actionable.
func CheckSeed(seed int64) error {
	p := workload.RandomProgram(seed)
	err := Check(p)
	if err == nil {
		return nil
	}
	min := Minimize(p, err)
	return fmt.Errorf("seed %d: %w\n--- minimized program ---\n%s", seed, err, Render(min))
}

// Render formats a program's module sources for a failure report.
func Render(p *workload.Program) string {
	out := ""
	for _, name := range moduleOrder(p) {
		out += fmt.Sprintf("// module file %q\n%s\n", name, p.Sources[name])
	}
	return out
}
