package main

import "testing"

func TestCheckServingFlags(t *testing.T) {
	for _, c := range []struct {
		parallel, calls int
		ok              bool
	}{
		{0, 4096, true},   // experiments mode
		{0, -5, true},     // -calls is ignored outside -parallel mode
		{4, 4096, true},   // serving mode
		{4, 1, true},      // fewer calls than workers is fine
		{-1, 4096, false}, // used to fall through to the experiments
		{4, 0, false},
		{4, -1, false},
	} {
		err := checkServingFlags(c.parallel, c.calls)
		if (err == nil) != c.ok {
			t.Errorf("checkServingFlags(%d, %d) = %v, want ok=%v", c.parallel, c.calls, err, c.ok)
		}
	}
}
