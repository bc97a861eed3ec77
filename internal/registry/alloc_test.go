package registry

import (
	"runtime"
	"testing"

	fpc "repro"
	"repro/internal/workload"
)

// raceEnabled is set under -race: the race detector changes what
// allocates, so allocation bounds are not checked under it.
var raceEnabled bool

// firstSightBytes bounds what one first sighting allocates: compile, link,
// verify, load and one warm machine. It reads 155–163 KB on linux/amd64
// with Go 1.24: the warm machine boots in the store an evicted image's
// machine released, and the parser keeps no token array. The bound leaves
// headroom for other toolchains, yet a frontend that lexes the whole
// source into a token slice before parsing, with a fresh 64K-word store
// for every warm machine, reads about 436 KB and fails it.
const firstSightBytes = 200_000

// TestFirstSightAllocs: distinct RandomProgram sources through
// SubmitSource, every one a miss that evicts under a small image cap, as
// in a submit-churn workload. Bytes per submission come from the
// TotalAlloc delta over the batch.
func TestFirstSightAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not checked under -race")
	}
	const warm, batch = 16, 200
	r := New(Config{Machine: fpc.ConfigFastCalls, Verify: true, WarmMachines: 1, MaxImages: 8})
	opts := fpc.DefaultLinkOptions(fpc.ConfigFastCalls)
	progs := make([]*workload.Program, warm+batch)
	for i := range progs {
		progs[i] = workload.RandomProgram(int64(1000 + i))
	}
	submit := func(p *workload.Program) {
		key := SourceKey(p.Sources, p.Module+"."+p.Proc)
		_, hit, err := r.SubmitSource(key, func() (*fpc.Program, error) {
			return fpc.Build(p.Sources, p.Module, p.Proc, opts)
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if hit {
			t.Fatalf("%s: a distinct program hit", p.Name)
		}
	}
	for _, p := range progs[:warm] {
		submit(p)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range progs[warm:] {
		submit(p)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / batch
	t.Logf("%d bytes per first sighting", per)
	if per > firstSightBytes {
		t.Fatalf("a first sighting allocates %d bytes, bound %d", per, firstSightBytes)
	}
}
