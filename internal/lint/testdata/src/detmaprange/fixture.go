// Package fixture exercises the detmaprange analyzer: every `// want`
// line is a defect the analyzer must catch; unmarked loops must pass.
package fixture

import (
	"math"
	"slices"
	"sort"
)

// bad: arbitrary loop body observes map order.
func emitUnsorted(m map[string]int) {
	for k, v := range m { // want `range over map`
		println(k, v)
	}
}

// good: the gather-then-sort idiom.
func emitSorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		println(k, m[k])
	}
}

// good: commutative integer accumulation is order-insensitive.
func sumValues(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// bad: float accumulation is order-dependent (non-associative adds).
func sumFloats(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // want `range over map`
		s += v
	}
	return s
}

// good: guarded integer counting.
func countTrue(m map[uint64]bool) int {
	var n int
	for _, w := range m {
		if w {
			n++
		}
	}
	return n
}

// bad: plain assignment is last-writer-wins, so order leaks through.
func lastValue(m map[string]int) int {
	var last int
	for _, v := range m { // want `range over map`
		last = v
	}
	return last
}

// good: justified escape hatch.
func clear(m map[string]int) {
	//redvet:ordered — deletion order is unobservable
	for k := range m {
		delete(m, k)
	}
}

type group struct{ reuses, cost int64 }

// bad: aggregated groups emitted in map order — the gather is never
// sorted, so the returned slice carries map order to the caller.
func groups(agg map[int64]*group) []group {
	out := make([]group, 0, len(agg))
	for _, g := range agg { // want `range over map`
		out = append(out, *g)
	}
	return out
}

// bad: a float reduction over values gathered from a map; the product
// rounds differently for each order of its terms.
func geomean(values map[string]map[int]float64, arch int) float64 {
	var xs []float64
	for _, row := range values { // want `range over map`
		xs = append(xs, row[arch])
	}
	p := 1.0
	for _, x := range xs {
		p *= x
	}
	return math.Pow(p, 1/float64(len(xs)))
}

// bad: keys gathered for emission but never sorted.
func rows(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // want `range over map`
		keys = append(keys, k)
	}
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k)
	}
	return out
}

// good: slices.Sort counts as the sort, wherever it sits in the function.
func sortedValues(m map[string]int) []int {
	vs := make([]int, 0, len(m))
	for _, v := range m {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	return vs
}

// bad: the sort is in the enclosing function, not in the function
// literal that gathers, so the literal returns map order.
func gatherInClosure(m map[string]int) []string {
	gather := func() []string {
		var ks []string
		for k := range m { // want `range over map`
			ks = append(ks, k)
		}
		return ks
	}
	ks := gather()
	sort.Strings(ks)
	return ks
}
