package registry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	fpc "repro"
	"repro/internal/snapshot"
)

// benchSources is the /run-shaped submission the serving benchmarks use;
// id differentiates linked bytes for the cold path.
func benchSources(id int) map[string]string {
	return map[string]string{"m": fmt.Sprintf(`
module m;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc main(n) { return fib(n) + %d + %d; }
`, id%1000, id/1000%1000)}
}

func benchBuild(id int) (*fpc.Program, error) {
	return fpc.Build(benchSources(id), "m", "main", fpc.DefaultLinkOptions(fpc.ConfigFastCalls))
}

// BenchmarkRegistryHit measures the warm submit path — what a repeat
// /run submission costs before its machine run: a source-key memo lookup
// and nothing else. Compare against BenchmarkColdSubmit: the gap is the
// compile+link+verify+predecode+boot work the registry amortizes to once
// per program.
func BenchmarkRegistryHit(b *testing.B) {
	r := New(Config{Machine: fpc.ConfigFastCalls, Verify: true})
	key := SourceKey(benchSources(0), "m.main")
	if _, _, err := r.SubmitSource(key, func() (*fpc.Program, error) { return benchBuild(0) }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, err := r.SubmitSource(key, func() (*fpc.Program, error) {
			b.Fatal("hit path called build")
			return nil, nil
		})
		if err != nil || !hit {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryHitCall is the full warm serving path: memo hit plus
// one pooled machine run (fib(15)) — the per-request cost once the load
// path has been amortized away.
func BenchmarkRegistryHitCall(b *testing.B) {
	r := New(Config{Machine: fpc.ConfigFastCalls, Verify: true})
	key := SourceKey(benchSources(0), "m.main")
	if _, _, err := r.SubmitSource(key, func() (*fpc.Program, error) { return benchBuild(0) }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, hit, err := r.SubmitSource(key, func() (*fpc.Program, error) { return nil, nil })
		if err != nil || !hit {
			b.Fatal(err)
		}
		if _, err := e.Pool().CallContext(context.Background(), e.Image().Entry(), 5_000_000, time.Time{}, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdSubmit measures the unamortized load path every /run paid
// before the registry: compile, link, verify, predecode, boot snapshot —
// a distinct program every iteration so nothing ever hits.
func BenchmarkColdSubmit(b *testing.B) {
	r := New(Config{Machine: fpc.ConfigFastCalls, Verify: true, MaxImages: 8, WarmMachines: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := SourceKey(benchSources(i), "m.main")
		_, hit, err := r.SubmitSource(key, func() (*fpc.Program, error) { return benchBuild(i) })
		if err != nil || hit {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdSubmitCall is BenchmarkColdSubmit plus the machine run —
// the full per-request cost of the pre-registry /run path.
func BenchmarkColdSubmitCall(b *testing.B) {
	r := New(Config{Machine: fpc.ConfigFastCalls, Verify: true, MaxImages: 8, WarmMachines: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := SourceKey(benchSources(i), "m.main")
		e, hit, err := r.SubmitSource(key, func() (*fpc.Program, error) { return benchBuild(i) })
		if err != nil || hit {
			b.Fatal(err)
		}
		if _, err := e.Pool().CallContext(context.Background(), e.Image().Entry(), 5_000_000, time.Time{}, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParked boots a machine for the serving benchmark program, runs it
// to a mid-recursion park point, and returns it with a second machine of
// the same image to restore onto.
func benchParked(b *testing.B) (parked, target *fpc.Machine) {
	b.Helper()
	prog, err := benchBuild(0)
	if err != nil {
		b.Fatal(err)
	}
	img, err := fpc.LoadImage(prog, fpc.ConfigFastCalls)
	if err != nil {
		b.Fatal(err)
	}
	m, err := img.NewMachine()
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Start(img.Entry(), 24); err != nil {
		b.Fatal(err)
	}
	m.SetRunBudget(20_000)
	if err := m.Run(); !errors.Is(err, fpc.ErrMaxSteps) {
		b.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	target, err = img.NewMachine()
	if err != nil {
		b.Fatal(err)
	}
	return m, target
}

// BenchmarkSnapshotRestore is the machine-side cost of a process switch —
// Snapshot a mid-run machine, Restore the continuation onto another
// machine of the same image — the per-timeslice work of internal/sched
// and the in-memory half of a /session boundary. Compare
// BenchmarkColdBoot: restore must stay an order of magnitude cheaper
// than booting the program from scratch for parking to be an admission
// policy rather than a penalty (3.9 µs against 46.8 µs when continuations
// landed; CHANGES.md).
func BenchmarkSnapshotRestore(b *testing.B) {
	m, target := benchParked(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := m.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if err := target.Restore(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionRoundTrip adds the wire codec to the switch: Snapshot,
// encode to the session table's byte form, decode, Restore — the full
// machine-plus-serialization cost fpcd pays at a /session segment
// boundary (park on one request, resume on a later one).
func BenchmarkSessionRoundTrip(b *testing.B) {
	m, target := benchParked(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := m.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		c2, err := snapshot.Decode(snapshot.Encode(c))
		if err != nil {
			b.Fatal(err)
		}
		if err := target.Restore(c2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdBoot is the alternative a resume avoids: boot a machine
// for the program from scratch (private image load plus boot snapshot),
// as every run paid before images and continuations were shareable.
func BenchmarkColdBoot(b *testing.B) {
	prog, err := benchBuild(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fpc.NewMachine(prog, fpc.ConfigFastCalls); err != nil {
			b.Fatal(err)
		}
	}
}
