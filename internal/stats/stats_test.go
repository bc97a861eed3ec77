package stats

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("reset counter = %d", c.Value())
	}
}

func TestRatioAndPercent(t *testing.T) {
	if r := Ratio(1, 4); r != 0.25 {
		t.Errorf("Ratio(1,4) = %v", r)
	}
	if r := Ratio(3, 0); r != 0 {
		t.Errorf("Ratio(3,0) = %v, want 0", r)
	}
	if p := Percent(1, 2); p != "50.0%" {
		t.Errorf("Percent(1,2) = %q", p)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []int{3, 1, 4, 1, 5, 9, 2, 6} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 9 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if h.Sum() != 31 {
		t.Errorf("Sum = %d", h.Sum())
	}
	if got := h.CountOf(1); got != 2 {
		t.Errorf("CountOf(1) = %d", got)
	}
	if f := h.FractionAtMost(4); f != 5.0/8 {
		t.Errorf("FractionAtMost(4) = %v", f)
	}
}

// TestHistogramQuantileMatchesSort checks every order statistic against
// a sorted copy of the samples, which are drawn on both sides of the dense
// range's edges: negatives, the range itself, its last slot, the first
// value past it, and values ≥ 10⁶. It also checks that Clone is
// independent, that Merge equals observing both sample sets, and that a
// Reset histogram given fewer, smaller samples equals a fresh one.
func TestHistogramQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func() int {
		switch rng.Intn(6) {
		case 0:
			return -1 - rng.Intn(20)
		case 1:
			return denseLimit - 1
		case 2:
			return denseLimit
		case 3:
			return 1_000_000 + rng.Intn(5)
		default:
			return rng.Intn(denseLimit)
		}
	}
	sample := func(n int) (*Histogram, []int) {
		h := &Histogram{}
		vals := make([]int, n)
		for i := range vals {
			vals[i] = draw()
			h.Observe(vals[i])
		}
		return h, vals
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		h, vals := sample(n)
		checkAgainstSort(t, h, vals)

		c := h.Clone()
		c.Observe(denseLimit - 1)
		c.Observe(-7)
		checkAgainstSort(t, h, vals)

		o, ovals := sample(1 + rng.Intn(100))
		both := Histogram{}
		for _, v := range append(append([]int(nil), vals...), ovals...) {
			both.Observe(v)
		}
		var merged Histogram
		merged.Merge(h)
		merged.Merge(o)
		if !reflect.DeepEqual(merged, both) {
			t.Fatalf("trial %d: Merge differs from observing both sample sets", trial)
		}

		// Fewer, smaller samples after Reset: the kept storage must not
		// show. One sample is dense, so both sides hold a dense slice.
		h.Reset()
		fresh := Histogram{}
		for i, k := 0, 1+rng.Intn(n); i < k; i++ {
			v := rng.Intn(denseLimit / 2)
			if i > 0 && rng.Intn(3) == 0 {
				v = -v - 1
			}
			h.Observe(v)
			fresh.Observe(v)
		}
		if !reflect.DeepEqual(*h, fresh) {
			t.Fatalf("trial %d: reset histogram %+v, fresh %+v", trial, *h, fresh)
		}
	}

	// A reset histogram that gets no dense sample keeps empty storage,
	// which its Clone drops.
	var h Histogram
	h.Observe(3)
	h.Reset()
	h.Observe(-2)
	var fresh Histogram
	fresh.Observe(-2)
	if c := h.Clone(); !reflect.DeepEqual(c, fresh) {
		t.Fatalf("clone of reset histogram %+v, fresh %+v", c, fresh)
	}

	// Merging into an empty histogram takes the other's Min and Max.
	var pos, merged Histogram
	pos.Observe(5)
	pos.Observe(denseLimit + 1)
	merged.Merge(&pos)
	if !reflect.DeepEqual(merged, pos) {
		t.Fatalf("merge into empty %+v, want %+v", merged, pos)
	}
}

// checkAgainstSort compares h's order statistics with those of vals.
func checkAgainstSort(t *testing.T, h *Histogram, vals []int) {
	t.Helper()
	sorted := append([]int(nil), vals...)
	sort.Ints(sorted)
	n := len(sorted)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 1} {
		idx := int(q*float64(n)+0.9999) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		if got, want := h.Quantile(q), sorted[idx]; got != want {
			t.Fatalf("n=%d q=%v: got %d want %d", n, q, got, want)
		}
	}
	var keys []int
	var counts []uint64
	var sum int64
	for i, v := range sorted {
		sum += int64(v)
		if i == 0 || v != sorted[i-1] {
			keys = append(keys, v)
			counts = append(counts, 0)
		}
		counts[len(counts)-1]++
	}
	gk, gc := h.Buckets()
	if !reflect.DeepEqual(gk, keys) || !reflect.DeepEqual(gc, counts) {
		t.Fatalf("Buckets = %v %v, want %v %v", gk, gc, keys, counts)
	}
	for i, k := range keys {
		if got := h.CountOf(k); got != counts[i] {
			t.Fatalf("CountOf(%d) = %d, want %d", k, got, counts[i])
		}
	}
	for _, v := range []int{-100, -1, 0, 1, denseLimit - 2, denseLimit - 1, denseLimit, 999_999, 1_000_002, 2_000_000} {
		want := uint64(sort.SearchInts(sorted, v+1))
		if got := h.CountAtMost(v); got != want {
			t.Fatalf("CountAtMost(%d) = %d, want %d", v, got, want)
		}
		if got := h.CountOf(v); got != uint64(sort.SearchInts(sorted, v+1)-sort.SearchInts(sorted, v)) {
			t.Fatalf("CountOf(%d) = %d", v, got)
		}
	}
	if h.Min() != sorted[0] || h.Max() != sorted[n-1] || h.Sum() != sum || h.Count() != uint64(n) {
		t.Fatalf("Min/Max/Sum/Count = %d/%d/%d/%d, want %d/%d/%d/%d",
			h.Min(), h.Max(), h.Sum(), h.Count(), sorted[0], sorted[n-1], sum, n)
	}
}

func TestHistogramMeanProperty(t *testing.T) {
	f := func(raw []int16) bool {
		var h Histogram
		sum := 0
		for _, v := range raw {
			h.Observe(int(v))
			sum += int(v)
		}
		if len(raw) == 0 {
			return h.Mean() == 0
		}
		want := float64(sum) / float64(len(raw))
		diff := h.Mean() - want
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketsSorted(t *testing.T) {
	var h Histogram
	for _, v := range []int{5, 3, 5, 8, 3, 3} {
		h.Observe(v)
	}
	keys, counts := h.Buckets()
	if !sort.IntsAreSorted(keys) {
		t.Fatalf("keys not sorted: %v", keys)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != h.Count() {
		t.Fatalf("bucket counts sum %d, want %d", total, h.Count())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 123456)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d: %q", len(lines), out)
	}
	// all rows align: same prefix width before second column
	if idx1, idx2 := strings.Index(lines[2], "-"), strings.Index(lines[4], "123456"); idx1 < 0 || idx2 < 0 {
		t.Errorf("unexpected render: %q", out)
	}
}
