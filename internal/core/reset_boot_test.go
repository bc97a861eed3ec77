package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/linker"
	"repro/internal/mem"
)

// loadFib links fib and loads it verified, the way a serving registry
// loads a program.
func loadFib(t *testing.T, cfg Config) *LoadedImage {
	t.Helper()
	prog := linkOne(t, fibModule(), "main", linker.Options{})
	img, err := LoadImage(prog, cfg, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestResetRestoresBoot runs fib on every configuration and demands that
// Reset restore the boot image exactly — all 64K data words and the
// allocator registers — whether the run left the dirty window empty
// (FastCalls: frame traffic stays in the banks, the copy-back is empty)
// or not (Mesa: frames live in storage), and that a reused run is
// byte-identical to a fresh one.
func TestResetRestoresBoot(t *testing.T) {
	for name, cfg := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			img := loadFib(t, cfg)
			boot, err := img.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			bootMem := boot.Mem().PeekRange(0, mem.Size)

			ref, res0 := uninterrupted(t, img, 4)
			refMet := ref.Metrics()

			m, res1 := uninterrupted(t, img, 4)
			if !reflect.DeepEqual(res1, res0) {
				t.Fatalf("results %v, want %v", res1, res0)
			}
			clean := m.Mem().DirtyWords() == 0
			if name == "fastcalls" && !clean {
				t.Errorf("fastcalls run dirtied %d words; the clean-window Reset is untested", m.Mem().DirtyWords())
			}
			if name == "mesa" && clean {
				t.Error("mesa run left the window clean; the dirty-window Reset is untested")
			}
			m.Reset()
			if got := m.Mem().PeekRange(0, mem.Size); !reflect.DeepEqual(got, bootMem) {
				t.Fatalf("memory after Reset (clean window %v) differs from the boot image", clean)
			}
			if got, want := m.Heap().State(), boot.Heap().State(); !reflect.DeepEqual(got, want) {
				t.Fatalf("allocator after Reset %+v, boot %+v", got, want)
			}
			res2, err := m.Call(img.Entry(), 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res2, res0) {
				t.Fatalf("reused results %v, want %v", res2, res0)
			}
			if !reflect.DeepEqual(m.Metrics(), refMet) {
				t.Fatalf("reused metrics diverge from fresh:\nreused %+v\nfresh  %+v", m.Metrics(), refMet)
			}
		})
	}
}

// TestRestoreOntoUsedMachine lands a parked continuation on a machine that
// has already run: Restore boots its target through Reset before writing
// the parked delta back, so no stale word from the machine's own run may
// survive into the resumed session, which must finish exactly like the
// uninterrupted run.
func TestRestoreOntoUsedMachine(t *testing.T) {
	for name, cfg := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			img := loadFib(t, cfg)
			ref, res0 := uninterrupted(t, img, 4)

			// Park a session mid-run; its continuation carries the delta.
			x, err := img.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			half := ref.Metrics().Instructions / 2
			x.SetRunBudget(half)
			if _, err := x.Call(img.Entry(), 4); !errors.Is(err, ErrMaxSteps) {
				t.Fatalf("budget cut: err = %v, want ErrMaxSteps", err)
			}
			c, err := x.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			// Dirty a second machine with a full run of its own, then land
			// the parked session on it.
			y, err := img.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := y.Call(img.Entry(), 4); err != nil {
				t.Fatal(err)
			}
			if err := y.Restore(c); err != nil {
				t.Fatal(err)
			}
			if err := y.Run(); err != nil {
				t.Fatal(err)
			}
			if got := y.Results(); !reflect.DeepEqual(got, res0) {
				t.Fatalf("%s: resumed results %v, want %v", name, got, res0)
			}

			// And the machine must still reset cleanly afterwards.
			boot, err := img.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			y.Reset()
			if got, want := y.Mem().PeekRange(0, mem.Size), boot.Mem().PeekRange(0, mem.Size); !reflect.DeepEqual(got, want) {
				t.Fatal("memory after post-resume Reset differs from the boot image")
			}
			res2, err := y.Call(img.Entry(), 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res2, res0) {
				t.Fatalf("post-resume reused results %v, want %v", res2, res0)
			}
		})
	}
}
