package difffuzz

import (
	"testing"

	"repro/internal/linker"
	"repro/internal/verify"
	"repro/internal/workload"
)

// pushdownSeeds are corpus seeds checked in because the pushdown
// call-matching verifier newly certifies each one's generated program —
// under both linkage policies — while the program exercises a feature the
// old interval analysis always surrendered on. Together they cover
// self-recursion, coroutine transfers and armed trap dispatch inside the
// certified population.
var pushdownSeeds = []struct {
	seed            int64
	rec, xfer, trap bool
}{
	{3, true, true, true},
	{4, true, false, true},
	{10, false, true, false},
	{25, false, false, true},
	{26, true, false, false},
	{94, true, true, true},
}

// TestPushdownSeedCoverage pins the property the seeds were chosen for: the
// program must stay certified and its call graph must keep the typed edges
// (recursive EdgeCall, EdgeXfer, EdgeTrap) that witness the feature. If the
// generator or the verifier drifts and a seed loses its certificate or its
// feature, this fails rather than letting the corpus silently stop
// exercising certified recursion, transfers or traps.
func TestPushdownSeedCoverage(t *testing.T) {
	for _, c := range pushdownSeeds {
		for _, early := range []bool{false, true} {
			prog, _, err := workload.RandomProgram(c.seed).Build(linker.Options{EarlyBind: early})
			if err != nil {
				t.Fatalf("seed %d early=%v: %v", c.seed, early, err)
			}
			r := verify.Program(prog)
			if !r.CertStackBounds {
				t.Errorf("seed %d early=%v: lost the stack-bounds certificate:\n%s", c.seed, early, r)
				continue
			}
			entryOf := map[uint32]string{}
			for _, p := range r.Procs {
				entryOf[p.Entry] = p.Name
			}
			procOf := func(pc uint32) string {
				best, name := uint32(0), ""
				for _, p := range r.Procs {
					if p.Entry <= pc && p.Entry >= best {
						best, name = p.Entry, p.Name
					}
				}
				return name
			}
			var rec, xfer, trap bool
			for _, e := range r.Calls {
				switch e.Kind {
				case verify.EdgeCall:
					if entryOf[e.Callee] == procOf(e.FromPC) {
						rec = true
					}
				case verify.EdgeXfer:
					xfer = true
				case verify.EdgeTrap:
					trap = true
				case verify.EdgeMay:
					t.Errorf("seed %d early=%v: certified program carries a may-edge at %06x", c.seed, early, e.FromPC)
				}
			}
			if c.rec && !rec {
				t.Errorf("seed %d early=%v: no recursive call edge", c.seed, early)
			}
			if c.xfer && !xfer {
				t.Errorf("seed %d early=%v: no transfer edge", c.seed, early)
			}
			if c.trap && !trap {
				t.Errorf("seed %d early=%v: no trap edge", c.seed, early)
			}
		}
	}
}

// TestPushdownSeedDifferential pushes every pinned seed through the full
// oracle: no run of a newly certified program may raise a stack fault
// (checkVerify runs each configuration).
func TestPushdownSeedDifferential(t *testing.T) {
	for _, c := range pushdownSeeds {
		if err := CheckSeed(c.seed); err != nil {
			t.Errorf("seed %d: %v", c.seed, err)
		}
	}
}
