package core

import (
	"reflect"
	"testing"

	"repro/internal/frames"
	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
	"repro/internal/workload"
)

func buildImage(t *testing.T, cfg Config) (*LoadedImage, *workload.Program) {
	t.Helper()
	p := workload.Fib(10)
	prog, _, err := p.Build(linker.Options{EarlyBind: true})
	if err != nil {
		t.Fatal(err)
	}
	img, err := LoadImage(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return img, p
}

// TestLoadedImageShared: two machines over one image run independently and
// agree on every counter; the image itself is never mutated by a run.
func TestLoadedImageShared(t *testing.T) {
	img, p := buildImage(t, ConfigFastCalls)
	run := func() *Metrics {
		m, err := img.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Call(img.Entry(), p.Args...)
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != *p.Want {
			t.Fatalf("result %v", res)
		}
		return m.Metrics()
	}
	a := run()
	bootBefore := append([]uint16(nil), img.boot.Words...)
	b := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two machines over one image diverged:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(bootBefore, img.boot.Words) {
		t.Fatal("a run mutated the shared boot snapshot")
	}
}

// TestBootInRecycledScratchStore: LoadImage and NewMachine boot in
// recycled scratch stores, so a machine must still hold exactly what a
// boot in a store fresh from mem.New leaves, all 64K words of it, with the
// same allocator state. The images are loaded one after another in
// recycled stores. Then each seed's machine runs its entry and is
// released, reset first on odd seeds as a pool resets it, and the next
// seed's machine boots in the store that release handed back.
func TestBootInRecycledScratchStore(t *testing.T) {
	const seeds = 40
	imgs := make([]*LoadedImage, seeds)
	args := make([][]mem.Word, seeds)
	for seed := range imgs {
		p := workload.RandomProgram(int64(seed))
		prog, _, err := p.Build(linker.Options{EarlyBind: seed%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		if imgs[seed], err = LoadImage(prog, ConfigFastCalls); err != nil {
			t.Fatal(err)
		}
		args[seed] = p.Args
	}
	var released *mem.Memory
	reused := 0
	for seed, img := range imgs {
		m, err := img.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		if m.Mem() == released {
			reused++
		}
		ref := mem.New()
		img.prog.Load(ref)
		h, err := frames.New(ref, img.heapConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ConfigFastCalls.FreeFrameStack; i++ {
			if _, err := h.Alloc(img.stdFSI); err != nil {
				t.Fatal(err)
			}
		}
		got, want := m.Mem().PeekRange(0, mem.Size), ref.PeekRange(0, mem.Size)
		for a := range got {
			if got[a] != want[a] {
				t.Fatalf("seed %d: word %04x = %04x after boot, fresh-store boot %04x", seed, a, got[a], want[a])
			}
		}
		if !reflect.DeepEqual(img.heapBoot, h.State()) {
			t.Fatalf("seed %d: image allocator %+v, fresh-store boot %+v", seed, img.heapBoot, h.State())
		}
		if !reflect.DeepEqual(m.Heap().State(), h.State()) {
			t.Fatalf("seed %d: machine allocator %+v, fresh-store boot %+v", seed, m.Heap().State(), h.State())
		}
		m.Call(img.Entry(), args[seed]...) // a failed run dirties the store too
		if seed%2 == 1 {
			m.Reset()
		}
		released = m.Mem()
		m.Release()
	}
	// The race detector drops some sync.Pool puts, so not every boot can
	// land in the store the last release handed back, but most do.
	t.Logf("%d of %d machines booted in the store the previous release handed back", reused, seeds-1)
	if reused == 0 {
		t.Fatal("no machine booted in the store the previous release handed back")
	}
}

// TestVerifiedLoadKeepsPredecode: a verified load hands the verifier the
// stream it predecoded for its machines, and the verifier leaves it as
// isa.Predecode made it.
func TestVerifiedLoadKeepsPredecode(t *testing.T) {
	for _, early := range []bool{false, true} {
		prog, _, err := workload.RandomProgram(7).Build(linker.Options{EarlyBind: early})
		if err != nil {
			t.Fatal(err)
		}
		img, err := LoadImage(prog, ConfigFastCalls, WithVerify())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := isa.Predecode(prog.Code)
		if !reflect.DeepEqual(img.Insts(), want) {
			t.Fatalf("early=%v: verified load's predecoded stream differs from isa.Predecode's", early)
		}
	}
}

// TestLoadImageValidation: configuration validation moved into LoadImage
// and still rejects impossible machines.
func TestLoadImageValidation(t *testing.T) {
	p := workload.Fib(5)
	prog, _, err := p.Build(linker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImage(prog, Config{RegBanks: 1}); err == nil {
		t.Error("single-bank config accepted")
	}
	if _, err := LoadImage(prog, Config{RegBanks: 2, BankWords: 2}); err == nil {
		t.Error("banks too small for linkage accepted")
	}
	if _, err := LoadImage(prog, Config{FreeFrameStack: 4, StdFrameWords: 1 << 14}); err == nil {
		t.Error("impossible standard frame size accepted")
	}
}

// TestImageConfigNormalized: the image reports the normalized config.
func TestImageConfigNormalized(t *testing.T) {
	img, _ := buildImage(t, ConfigFastCalls)
	cfg := img.Config()
	if cfg.BankWords != 16 || cfg.StdFrameWords != 40 || cfg.MaxSteps == 0 {
		t.Fatalf("config not normalized: %+v", cfg)
	}
	if img.Program() == nil {
		t.Fatal("Program accessor broken")
	}
}

// TestMetricsDefensiveCopy: metrics handed to a caller must not change
// when the machine keeps running or is reset.
func TestMetricsDefensiveCopy(t *testing.T) {
	img, p := buildImage(t, ConfigFastCalls)
	m, err := img.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(img.Entry(), p.Args...); err != nil {
		t.Fatal(err)
	}
	first := m.Metrics()
	snapshot := first.Clone()
	if _, err := m.Call(img.Entry(), p.Args...); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("a later run mutated metrics already handed out")
	}
	m.Reset()
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("Reset mutated metrics already handed out")
	}
	if m.Metrics().Instructions != 0 {
		t.Fatal("Reset did not clear the machine's own metrics")
	}
}

// TestMetricsMergeIdentity: merging k identical runs multiplies every
// counter and histogram sample count by k.
func TestMetricsMergeIdentity(t *testing.T) {
	img, p := buildImage(t, ConfigFastCalls)
	m, err := img.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(img.Entry(), p.Args...); err != nil {
		t.Fatal(err)
	}
	one := m.Metrics()
	var agg Metrics
	for i := 0; i < 3; i++ {
		agg.Merge(one)
	}
	if agg.Instructions != 3*one.Instructions || agg.Cycles != 3*one.Cycles {
		t.Fatalf("merge totals wrong: %+v", agg)
	}
	for k := range agg.CyclesPer {
		if agg.CyclesPer[k].Count() != 3*one.CyclesPer[k].Count() {
			t.Fatalf("kind %d histogram merge wrong", k)
		}
		if agg.CyclesPer[k].Max() != one.CyclesPer[k].Max() {
			t.Fatalf("kind %d merged max diverges", k)
		}
	}
	if agg.FastFraction() != one.FastFraction() {
		t.Fatalf("merged fast fraction %f != %f", agg.FastFraction(), one.FastFraction())
	}
}

// TestMemoryFootprint: the accounted footprint covers the dominant
// resident structures (boot snapshot + predecoded stream) and scales with
// what the image actually holds — it is what a memory-budgeted registry
// charges per cached image.
func TestMemoryFootprint(t *testing.T) {
	img, _ := buildImage(t, ConfigFastCalls)
	fp := img.MemoryFootprint()
	bootBytes := int64(len(img.boot.Words)) * 2
	if fp < bootBytes {
		t.Fatalf("footprint %d smaller than its boot snapshot alone (%d)", fp, bootBytes)
	}
	if fp2 := img.MemoryFootprint(); fp2 != fp {
		t.Fatalf("footprint not stable: %d then %d", fp, fp2)
	}
	mf := img.MachineFootprint()
	if mf < int64(65536)*2 {
		t.Fatalf("machine footprint %d misses the 64K-word MDS copy", mf)
	}
	// ConfigMesa has no register banks; its machines must not be charged
	// for banks they do not allocate.
	imgMesa, _ := buildImage(t, ConfigMesa)
	if imgMesa.MachineFootprint() > mf {
		t.Fatalf("mesa machine footprint %d exceeds fastcalls %d", imgMesa.MachineFootprint(), mf)
	}
}
