package difffuzz

import "testing"

// effectsSeeds are corpus seeds checked in for the storage shapes their
// programs exercise under both linkage policies: 12, 17, 32 and 169 store
// through run-allocated record pointers, and 37, 78 and 157 write nothing
// outside the frame arena, so on FastCalls their Reset copies back an
// empty window. 157 and 169 lie outside TestDifferentialSweep's range.
var effectsSeeds = []int64{12, 17, 32, 169, 37, 78, 157}

// TestEffectsSeedDifferential pushes every pinned seed through the full
// oracle; checkMetamorphic in particular drives the run-Reset-run chain,
// asserting boot memory and allocator state after each Reset.
func TestEffectsSeedDifferential(t *testing.T) {
	for _, seed := range effectsSeeds {
		if err := CheckSeed(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
