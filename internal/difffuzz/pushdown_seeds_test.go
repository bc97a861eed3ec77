package difffuzz

import "testing"

// pushdownSeeds are corpus seeds checked in because each one's generated
// program, under both linkage policies, exercises self-recursion,
// coroutine transfers or armed trap dispatch: the shapes the verifier's
// per-procedure summaries and trap arming have to admit.
var pushdownSeeds = []int64{3, 4, 10, 25, 26, 94}

// TestPushdownSeedDifferential pushes every pinned seed through the full
// oracle, admission completeness included (checkVerify).
func TestPushdownSeedDifferential(t *testing.T) {
	for _, seed := range pushdownSeeds {
		if err := CheckSeed(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
