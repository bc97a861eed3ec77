// Package fpc is a library reproduction of Butler W. Lampson's "Fast
// Procedure Calls" (ASPLOS 1982): a general control-transfer mechanism —
// contexts and a single XFER primitive covering procedure calls, returns,
// coroutine transfers, traps and process switches — together with the
// paper's four implementations:
//
//	I1  the straightforward scheme (internal/xfer + internal/interp):
//	    contexts are first-class heap objects; the reference semantics.
//	I2  the Mesa encoding (ConfigMesa): byte-coded stack machine, link
//	    vectors, global frame table, entry vectors, packed 16-bit
//	    procedure descriptors, frame heap with size-class free lists.
//	I3  fast instruction fetching (ConfigFastFetch): DIRECTCALL /
//	    SHORTDIRECTCALL linkage plus an IFU return stack.
//	I4  fast locals and parameters (ConfigFastCalls): register banks with
//	    stack-bank renaming for free argument passing, and a processor
//	    stack of standard-size free frames.
//
// The processor is a deterministic simulator that charges the costs the
// paper reasons with — memory references and cycles (1-cycle registers,
// 2-cycle storage, IFU refills) — so the paper's quantitative claims can
// be measured rather than assumed. Programs are written in a small
// Algol-family language, compiled to the byte code, linked (optionally
// with §6/§8 early binding), and run under any configuration; the I1
// interpreter provides differential reference runs.
//
// Quick start:
//
//	prog, err := fpc.Build(map[string]string{"hello": `
//	module hello;
//	proc main(n) { return n * 2; }
//	`}, "hello", "main", fpc.LinkOptions{})
//	m, err := fpc.NewMachine(prog, fpc.ConfigFastCalls)
//	res, err := m.Call(prog.Entry, 21)   // res[0] == 42
//	met := m.Metrics()                   // cycles, references, hit rates
package fpc

import (
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/linker"
	"repro/internal/mem"
	"repro/internal/verify"
)

// Word is the machine word: 16 bits, as on the Mesa machines.
type Word = mem.Word

// Module is a compiled module ready for linking.
type Module = image.Module

// Program is a linked, loadable image.
type Program = image.Program

// Machine is the simulated processor.
type Machine = core.Machine

// LoadedImage is a Program loaded exactly once into an immutable boot
// snapshot (code space, GFT, global frames, link vectors, boot-time MDS
// contents and allocator state) that any number of machines share. Boot a
// machine from it with NewMachine, or serve concurrently with a Pool.
type LoadedImage = core.LoadedImage

// Config selects which of the paper's optimizations are active.
type Config = core.Config

// Metrics is the measurement record of a run.
type Metrics = core.Metrics

// Continuation is a machine's suspended execution state — registers, frame
// chain, IFU return stack, dirty memory windows, trap and coroutine
// context — captured at an instruction boundary by Machine.Snapshot and
// resumed byte-identically by Machine.Restore on any machine booted from
// an image with the same content hash. It owns deep copies of everything
// it carries, so the snapshotted machine can be recycled (Pool.Put) and
// serve other runs without disturbing the parked state.
type Continuation = core.Continuation

// LinkOptions selects linkage policies (early binding, short calls, ...).
type LinkOptions = linker.Options

// LinkStats summarizes static code-space properties of a linked program.
type LinkStats = linker.Stats

// Machine configurations matching the paper's implementations.
var (
	// ConfigMesa is I2 (§5): everything in main storage, optimized for
	// space.
	ConfigMesa = core.ConfigMesa
	// ConfigFastFetch is I3 (§6): I2 plus the IFU return stack.
	ConfigFastFetch = core.ConfigFastFetch
	// ConfigFastCalls is I4 (§7): I3 plus register banks and the
	// free-frame stack.
	ConfigFastCalls = core.ConfigFastCalls
)

// JumpCycles is the simulator's cost of a taken unconditional jump — the
// yardstick for the paper's "as fast as unconditional jumps" claim.
const JumpCycles = core.JumpCycles

// Run-limit sentinels, re-exported so callers outside the module can
// match them with errors.Is (internal/core is not importable there).
var (
	// ErrMaxSteps is wrapped by run errors when Config.MaxSteps or a
	// per-run budget (Machine.SetRunBudget, Pool.CallContext) cuts a run.
	ErrMaxSteps = core.ErrMaxSteps
	// ErrCanceled is wrapped when the cancel probe stops a run: a cancel
	// hook's error or a passed deadline (Machine.SetCancel,
	// Machine.SetDeadline, Pool.CallContext).
	ErrCanceled = core.ErrCanceled
)

// Compile compiles a set of module sources (module name -> source text).
func Compile(sources map[string]string) ([]*Module, error) {
	return lang.CompileAll(sources)
}

// Link binds compiled modules into a runnable Program starting at
// module.proc.
func Link(mods []*Module, module, proc string, opts LinkOptions) (*Program, *LinkStats, error) {
	return linker.Link(mods, module, proc, opts)
}

// Build compiles and links in one step.
func Build(sources map[string]string, module, proc string, opts LinkOptions) (*Program, error) {
	mods, err := Compile(sources)
	if err != nil {
		return nil, err
	}
	prog, _, err := Link(mods, module, proc, opts)
	return prog, err
}

// NewMachine boots a machine for prog under cfg. The program is loaded
// into a private image; to amortize loading across machines use LoadImage
// once and boot machines from the shared LoadedImage.
func NewMachine(prog *Program, cfg Config) (*Machine, error) {
	return core.New(prog, cfg)
}

// LoadImage loads prog once under cfg into an immutable snapshot that any
// number of machines (and Pools) share.
func LoadImage(prog *Program, cfg Config) (*LoadedImage, error) {
	return core.LoadImage(prog, cfg)
}

// VerifyReport is the static verifier's structured result: per-pc
// diagnostics with reason codes and the per-pc stack-depth bounds
// (DepthAt).
type VerifyReport = verify.Report

// VerifyError is returned by LoadImageVerified for a rejected program.
type VerifyError = core.VerifyError

// ContentHash returns the content address of a linked program: a SHA-256
// over its linked bytes (code space, initialized data, frame size table,
// entry descriptor). Equal hashes load to byte-identical images, which is
// what lets the program registry (internal/registry, served by fpcd)
// verify and predecode a submission once and share the cached image
// across every tenant that submits the same program.
func ContentHash(prog *Program) string { return prog.ContentHash() }

// Verify runs the link-time verifier over a linked program without
// loading it. The report says whether the program is admitted: no
// reachable instruction definitely faults or reads broken linkage.
func Verify(prog *Program) *VerifyReport {
	return verify.Program(prog)
}

// LoadImageVerified is LoadImage behind the verifier: a rejected program
// fails with a *VerifyError (inspect its Report), and an admitted program
// loads exactly as LoadImage would load it.
func LoadImageVerified(prog *Program, cfg Config) (*LoadedImage, error) {
	return core.LoadImage(prog, cfg, core.WithVerify())
}

// DefaultLinkOptions returns the linkage policy matched to cfg. Machines
// with an IFU return stack (ConfigFastFetch, ConfigFastCalls) get the
// §6/§8 DIRECTCALL early binding they were designed around — the
// documented fast path — while ConfigMesa keeps the space-optimized
// link-vector linkage of §5.
func DefaultLinkOptions(cfg Config) LinkOptions {
	if cfg.ReturnStackDepth > 0 {
		return LinkOptions{EarlyBind: true}
	}
	return LinkOptions{}
}

// Run is the one-shot convenience: compile, link, boot, call. It links
// with DefaultLinkOptions(cfg), so the fast configurations actually get
// their early-bound calls; use RunLinked to pick the linkage explicitly.
func Run(sources map[string]string, module, proc string, cfg Config, args ...Word) ([]Word, *Metrics, error) {
	return RunLinked(sources, module, proc, cfg, DefaultLinkOptions(cfg), args...)
}

// RunLinked is Run with an explicit linkage policy threaded through to the
// linker. When the call itself fails, the machine's metrics are still
// returned alongside the error — the work up to the failure was done and
// measured (the same "failed runs are still accounted" semantics as
// Pool) — so a step-limited or trapped run can still be examined.
func RunLinked(sources map[string]string, module, proc string, cfg Config, opts LinkOptions, args ...Word) ([]Word, *Metrics, error) {
	prog, err := Build(sources, module, proc, opts)
	if err != nil {
		return nil, nil, err
	}
	m, err := NewMachine(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Call(prog.Entry, args...)
	return res, m.Metrics(), err
}

// Reference runs module.proc under the I1 reference implementation (the
// abstract model of §3-§4 with first-class heap contexts) and returns its
// results and output record.
func Reference(sources map[string]string, module, proc string, args ...Word) (results, output []Word, err error) {
	prog, err := lang.ParseAll(sources)
	if err != nil {
		return nil, nil, err
	}
	ip := interp.New(prog)
	defer ip.Close()
	res, err := ip.Run(module, proc, args...)
	if err != nil {
		return nil, nil, err
	}
	return res, ip.Output, nil
}
