package core

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/frames"
	"repro/internal/ifu"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/regbank"
	"repro/internal/verify"
)

// LoadedImage is a linked Program loaded exactly once: the code space plus
// an immutable snapshot of the boot-time main data space (GFT, global
// frames, link vectors, allocation vector, the carved free-frame region)
// and the allocator and free-frame-stack state at the same instant. The
// snapshot keeps only the window of words the boot wrote; every word
// outside it is zero. Any number of machines share one LoadedImage — each
// boots by a memcpy of that window instead of re-compiling, re-linking and
// re-loading, and resets the same way. A LoadedImage is never written
// after LoadImage returns, so it is safe for concurrent use by any number
// of goroutines.
type LoadedImage struct {
	prog *image.Program
	cfg  Config // normalized and validated

	boot     mem.Snapshot // the window of the MDS the boot wrote
	heapBoot frames.State // allocator register state at the snapshot point
	bootFree []mem.Addr   // free-frame stack contents at the snapshot point
	stdFSI   int          // size class of the standard frame; -1 disabled
	// insts is the predecoded instruction stream: one slot per code byte,
	// built once here and shared read-only by every machine (the
	// decode-once engine's input; see isa.Predecode).
	insts []isa.Inst
}

// LoadOption configures LoadImage.
type LoadOption func(*loadOpts)

type loadOpts struct{ verify bool }

// WithVerify makes LoadImage run the static verifier over the program
// before accepting it: admission is all it decides. A program the verifier
// rejects fails the load with a *VerifyError carrying the full report; an
// admitted image keeps nothing of it and runs the same checked dispatch
// table as any other.
func WithVerify() LoadOption {
	return func(o *loadOpts) { o.verify = true }
}

// VerifyError is the load failure for a program the verifier rejected; the
// Report holds the per-pc diagnostics.
type VerifyError struct {
	Report *verify.Report
}

func (e *VerifyError) Error() string {
	errs := e.Report.Errors()
	if len(errs) == 0 {
		return "core: program rejected by verifier"
	}
	return fmt.Sprintf("core: program rejected by verifier: %s (%d diagnostics)", errs[0], len(e.Report.Diags))
}

// scratchStores recycles zeroed 64K-word stores. LoadImage boots its
// snapshot in one and puts it back restored to the zero Snapshot;
// NewMachine takes one for the machine it boots, and Machine.Release gives
// a machine's store back unloaded. So a load pays for the words its boot
// wrote rather than for a fresh store, and the machines of an evicted
// image boot the next one. The pool allocates a store only when it is
// empty.
var scratchStores = sync.Pool{New: func() any { return mem.New() }}

// LoadImage loads prog once under cfg: it validates and normalizes the
// configuration, boots a scratch store (initial data, frame heap,
// free-frame prefill — boot-time traffic is not part of any run) and
// captures the snapshot every machine over this image will boot from.
func LoadImage(prog *image.Program, cfg Config, opts ...LoadOption) (*LoadedImage, error) {
	var lo loadOpts
	for _, o := range opts {
		o(&lo)
	}
	if cfg.BankWords == 0 {
		cfg.BankWords = 16
	}
	if cfg.RegBanks > 0 && cfg.BankWords < image.FrameHeaderWords+1 {
		return nil, fmt.Errorf("core: banks of %d words cannot hold the frame linkage", cfg.BankWords)
	}
	if cfg.RegBanks == 1 {
		return nil, fmt.Errorf("core: a single bank cannot hold both the stack and a frame")
	}
	if cfg.StdFrameWords == 0 {
		cfg.StdFrameWords = 40
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200_000_000
	}

	img := &LoadedImage{prog: prog, cfg: cfg, stdFSI: -1}
	insts, err := isa.Predecode(prog.Code)
	if err != nil {
		return nil, err
	}
	if lo.verify {
		rep := verify.Predecoded(prog, insts)
		if !rep.Admitted() {
			return nil, &VerifyError{Report: rep}
		}
	}
	img.insts = insts
	store := scratchStores.Get().(*mem.Memory)
	defer func() {
		store.RestoreFrom(mem.Snapshot{})
		scratchStores.Put(store)
	}()
	prog.Load(store)
	h, err := frames.New(store, img.heapConfig())
	if err != nil {
		return nil, err
	}
	if cfg.FreeFrameStack > 0 {
		fsi, ok := h.FSIForWords(cfg.StdFrameWords)
		if !ok {
			return nil, fmt.Errorf("core: no frame class holds %d words", cfg.StdFrameWords)
		}
		img.stdFSI = fsi
		// Pre-fill the processor's free-frame stack; this carves heap
		// storage, which is why it happens once, before the snapshot.
		for i := 0; i < cfg.FreeFrameStack; i++ {
			lf, err := h.Alloc(fsi)
			if err != nil {
				return nil, err
			}
			img.bootFree = append(img.bootFree, lf)
		}
	}
	img.boot = store.Snapshot()
	img.heapBoot = h.State()
	return img, nil
}

func (img *LoadedImage) heapConfig() frames.Config {
	return frames.Config{
		AVBase:    image.AVBase,
		HeapBase:  img.prog.HeapBase,
		HeapLimit: image.HeapLimit,
		Sizes:     img.prog.FrameSizes,
		Check:     img.cfg.HeapCheck,
	}
}

// Program returns the linked program this image was loaded from.
func (img *LoadedImage) Program() *image.Program { return img.prog }

// Config returns the normalized machine configuration of the image.
func (img *LoadedImage) Config() Config { return img.cfg }

// Entry returns the program's start descriptor.
func (img *LoadedImage) Entry() mem.Word { return img.prog.Entry }

// Insts returns the shared predecoded instruction stream, one slot per
// code byte. Callers must treat it as read-only: it is shared by every
// machine booted over this image.
func (img *LoadedImage) Insts() []isa.Inst { return img.insts }

// Certified reports false for every image: the verifier decides admission
// and grants no certificate.
//
// Deprecated: the stack-bounds certificate is gone; every image runs the
// same checked dispatch table.
func (img *LoadedImage) Certified() bool { return false }

// ResetElide reports false for every image: Machine.Reset has one path.
//
// Deprecated: Reset always copies back the dirty window and restores the
// allocator registers; nothing is elided.
func (img *LoadedImage) ResetElide() bool { return false }

// MemoryFootprint reports the bytes a resident LoadedImage pins: the boot
// snapshot's window of the main data space (not the whole 64K words), the
// predecoded instruction stream, the code space and the free-frame/boot
// bookkeeping. A registry holding images under a memory budget charges
// exactly this much per cached image; machines booted over the image cost
// MachineFootprint each on top.
func (img *LoadedImage) MemoryFootprint() int64 {
	n := int64(len(img.boot.Words)) * int64(unsafe.Sizeof(mem.Word(0)))
	n += int64(len(img.insts)) * int64(unsafe.Sizeof(isa.Inst{}))
	n += int64(len(img.prog.Code))
	n += int64(len(img.prog.Data)) * int64(unsafe.Sizeof(image.DataWord{}))
	n += int64(len(img.bootFree)) * int64(unsafe.Sizeof(mem.Addr(0)))
	return n
}

// MachineFootprint reports the bytes one booted machine over this image
// holds beyond the shared image itself — dominated by its private 64K-word
// copy of the main data space. Warm pooled machines are charged this much
// each by a memory-budgeted registry.
func (img *LoadedImage) MachineFootprint() int64 {
	n := int64(mem.Size) * int64(unsafe.Sizeof(mem.Word(0)))
	n += int64(len(img.bootFree)) * int64(unsafe.Sizeof(mem.Addr(0)))
	n += int64(img.cfg.RegBanks*img.cfg.BankWords) * int64(unsafe.Sizeof(mem.Word(0)))
	return n
}

// NewMachine boots a fresh machine over the shared image: a zeroed
// 64K-word store from scratchStores (a released machine's, when there is
// one) with the boot window copied in, plus cheap register allocation, no
// linking or loading.
func (img *LoadedImage) NewMachine() (*Machine, error) {
	m := &Machine{
		cfg:       img.cfg,
		img:       img,
		prog:      img.prog,
		m:         scratchStores.Get().(*mem.Memory),
		code:      img.prog.Code,
		insts:     img.insts,
		rs:        ifu.New(img.cfg.ReturnStackDepth),
		banks:     regbank.New(img.cfg.RegBanks, img.cfg.BankWords),
		stackBank: -1,
		stdFSI:    img.stdFSI,
		curFSI:    -1,
	}
	m.m.LoadFrom(img.boot)
	h, err := frames.Adopt(m.m, img.heapConfig(), img.heapBoot)
	if err != nil {
		m.Release()
		return nil, err
	}
	m.heap = h
	m.freeFrames = append([]mem.Addr(nil), img.bootFree...)
	return m, nil
}
