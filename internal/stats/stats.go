// Package stats provides the small measurement substrate shared by the
// simulator and the benchmark harness: counters, histograms and table
// rendering. Everything is deterministic and allocation-light so that
// instrumenting the simulated processor does not perturb its cost model.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// Ratio returns c/total as a float, or 0 when total is zero.
func Ratio(c, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// Percent formats c/total as a percentage string such as "4.2%".
func Percent(c, total uint64) string {
	return fmt.Sprintf("%.1f%%", 100*Ratio(c, total))
}

// denseLimit bounds the values a Histogram counts densely. The
// simulator's per-transfer reference and cycle samples fall well inside
// [0, denseLimit): at most 33 references and 71 cycles over the corpus and
// 2,000 random programs, under every config and linkage.
const denseLimit = 256

// Histogram accumulates integer samples and reports order statistics.
// The zero value is ready to use.
//
// Samples in [0, denseLimit) are counted in dense, indexed by value: its
// length is one past the largest such sample, and Reset keeps its backing
// array, so a histogram reused run after run stops allocating. Any other
// sample is counted in sparse.
type Histogram struct {
	dense  []uint64
	sparse map[int]uint64
	total  uint64
	sum    int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int) { h.ObserveN(v, 1) }

// ObserveN records the same sample n times, in constant time — bulk
// reconstruction (a histogram codec replaying Buckets) must not pay per
// sample.
func (h *Histogram) ObserveN(v int, n uint64) {
	if n == 0 {
		return
	}
	if uint(v) < denseLimit {
		h.growDense(v + 1)
		h.dense[v] += n
	} else {
		if h.sparse == nil {
			h.sparse = make(map[int]uint64)
		}
		h.sparse[v] += n
	}
	h.total += n
	h.sum += int64(v) * int64(n)
}

// growDense extends dense to at least n zeroed slots, reusing its
// backing array while it has room.
func (h *Histogram) growDense(n int) {
	if n > len(h.dense) {
		h.dense = append(h.dense, make([]uint64, n-len(h.dense))...)
	}
}

// Reset empties the histogram in place. The dense storage is kept, so a
// histogram reused run after run stops allocating once it has grown.
func (h *Histogram) Reset() {
	*h = Histogram{dense: h.dense[:0]}
}

// Clone returns an independent deep copy of the histogram. The copy holds
// only the dense slots up to the largest sample, so a clone of a reset and
// reused histogram equals a clone of a fresh one given the same samples.
func (h *Histogram) Clone() Histogram {
	c := Histogram{total: h.total, sum: h.sum}
	if len(h.dense) > 0 {
		c.dense = append([]uint64(nil), h.dense...)
	}
	if h.sparse != nil {
		c.sparse = make(map[int]uint64, len(h.sparse))
		for k, v := range h.sparse {
			c.sparse[k] = v
		}
	}
	return c
}

// Merge folds other's samples into h (aggregate accounting across pooled
// machines).
func (h *Histogram) Merge(other *Histogram) {
	h.growDense(len(other.dense))
	for v, c := range other.dense {
		h.dense[v] += c
	}
	if len(other.sparse) > 0 && h.sparse == nil {
		h.sparse = make(map[int]uint64, len(other.sparse))
	}
	for k, v := range other.sparse {
		h.sparse[k] += v
	}
	h.total += other.total
	h.sum += other.sum
}

// Count reports the number of samples observed.
func (h *Histogram) Count() uint64 { return h.total }

// Sum reports the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Min reports the smallest sample, or 0 if empty.
func (h *Histogram) Min() int {
	if h.total == 0 {
		return 0
	}
	keys, _ := h.Buckets()
	return keys[0]
}

// Max reports the largest sample, or 0 if empty.
func (h *Histogram) Max() int {
	if h.total == 0 {
		return 0
	}
	keys, _ := h.Buckets()
	return keys[len(keys)-1]
}

// Mean reports the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile reports the smallest value v such that at least q (0..1) of the
// samples are ≤ v. Quantile(0.5) is the median.
func (h *Histogram) Quantile(q float64) int {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := uint64(math.Ceil(q * float64(h.total)))
	if need == 0 {
		need = 1
	}
	keys, counts := h.Buckets()
	var seen uint64
	for i, k := range keys {
		seen += counts[i]
		if seen >= need {
			return k
		}
	}
	return keys[len(keys)-1]
}

// FractionAtMost reports the fraction of samples ≤ v.
func (h *Histogram) FractionAtMost(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.CountAtMost(v)) / float64(h.total)
}

// CountAtMost reports how many samples are ≤ v — the cumulative bucket
// count a Prometheus-style histogram exposition needs.
func (h *Histogram) CountAtMost(v int) uint64 {
	var n uint64
	for k, c := range h.sparse {
		if k <= v {
			n += c
		}
	}
	for k := 0; k <= v && k < len(h.dense); k++ {
		n += h.dense[k]
	}
	return n
}

// CountOf reports how many samples equal v exactly.
func (h *Histogram) CountOf(v int) uint64 {
	if uint(v) < uint(len(h.dense)) {
		return h.dense[v]
	}
	return h.sparse[v]
}

// Buckets returns the distinct sample values in ascending order with their
// counts, for rendering distributions.
func (h *Histogram) Buckets() ([]int, []uint64) {
	keys := make([]int, 0, len(h.dense)+len(h.sparse))
	for v, c := range h.dense {
		if c != 0 {
			keys = append(keys, v)
		}
	}
	for k := range h.sparse {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	counts := make([]uint64, len(keys))
	for i, k := range keys {
		counts[i] = h.CountOf(k)
	}
	return keys, counts
}

// Table renders aligned text tables in the style the paper's evaluation
// rows are reported, suitable for terminal output and EXPERIMENTS.md.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, hcell := range t.header {
		widths[i] = len(hcell)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
