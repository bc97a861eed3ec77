package verify

import "math/bits"

// maxTrackedRegions bounds the region and allocation-site index spaces of
// the value lattice. Regions and sites past it never enter a set: a
// context naming such a region, or a record of such a site, is top, so a
// program with more procedures keeps value tracking for its first 256.
const maxTrackedRegions = 256

// regSet is a fixed 256-bit set of region (or record allocation-site)
// indices. It is comparable with ==, which keeps value and absState
// comparable — joins and fixpoint equality tests stay cheap.
type regSet struct{ w [4]uint64 }

// rs1 returns the singleton set {i}.
func rs1(i int) regSet {
	var s regSet
	s.w[i>>6] = 1 << (uint(i) & 63)
	return s
}

func (s regSet) empty() bool { return s.w[0]|s.w[1]|s.w[2]|s.w[3] == 0 }

func (s regSet) has(i int) bool { return s.w[i>>6]>>(uint(i)&63)&1 == 1 }

func (s regSet) add(i int) regSet {
	s.w[i>>6] |= 1 << (uint(i) & 63)
	return s
}

func (s regSet) union(o regSet) regSet {
	for i := range s.w {
		s.w[i] |= o.w[i]
	}
	return s
}

func (s regSet) intersects(o regSet) bool {
	return s.w[0]&o.w[0]|s.w[1]&o.w[1]|s.w[2]&o.w[2]|s.w[3]&o.w[3] != 0
}

// forEach calls f with each member in ascending order.
func (s regSet) forEach(f func(int)) {
	for wi, w := range s.w {
		for ; w != 0; w &= w - 1 {
			f(wi<<6 + bits.TrailingZeros64(w))
		}
	}
}
