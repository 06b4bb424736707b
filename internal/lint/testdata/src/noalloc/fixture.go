// Package noalloc is the fixture for the noalloc analyzer: one example
// of every construct the hot-path scanner classifies as an allocation
// site, the transitive callee propagation (in-package and cross-package
// through the fact store), and the sanctioned escape hatches (coldstart
// callees, //redvet:alloc suppressions, dynamic calls).
package noalloc

import (
	"fmt"
	"strconv"
)

// leak deliberately grows a slice on an annotated hot path — the
// acceptance check that a freshly introduced allocation inside a
// hotpath function is caught.
//
//redvet:hotpath
func leak(s []int, v int) []int {
	return append(s, v) // want `allocation on hot path leak: append may grow its backing array`
}

//redvet:hotpath
func sites(m map[int]int, s string, n int) {
	_ = make([]int, n) // want `allocation on hot path sites: make allocates`
	_ = new(int)       // want `allocation on hot path sites: new allocates`
	_ = []int{1, 2}    // want `slice literal allocates its backing array`
	_ = map[int]int{}  // want `map literal allocates`
	_ = s + "x"        // want `string concatenation allocates`
	m[n] = 1           // want `map write may allocate`
	m[n]++             // want `map update may allocate`
	_ = []byte(s)      // want `string to \[\]byte conversion allocates`
	go noop()          // want `go statement allocates a goroutine`
	defer noop()       // want `defer allocates its frame record`
}

func noop() {}

type point struct{ x, y int }

//redvet:hotpath
func escape() *point {
	return &point{1, 2} // want `composite literal escapes to the heap`
}

//redvet:hotpath
func boxing(n int, p *int) (out interface{}) {
	var i interface{}
	i = n // want `assignment boxes int into interface\{\}`
	_ = i
	i = p // pointer-shaped values fit the interface word: no allocation
	_ = i
	sink(n)  // want `argument boxes int into interface\{\}`
	return n // want `return boxes int into interface\{\}`
}

func sink(v interface{}) { _ = v }

//redvet:hotpath
func variadic(a, b int) int {
	return vsum(a, b) // want `variadic call allocates its argument slice`
}

func vsum(xs ...int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

//redvet:hotpath
func capture(n int) func() int {
	return func() int { return n } // want `closure allocates: captures n`
}

// wrapper is clean itself but calls an in-package helper that
// allocates; the fixpoint demotes the helper and the call site is
// reported.
//
//redvet:hotpath
func wrapper(s []int) []int {
	return grow(s) // want `hot path wrapper calls .*noalloc\.grow, which allocates: append may grow`
}

func grow(s []int) []int { return append(s, 1) }

// unknown calls into a stdlib package outside the alloc-pure allowlist:
// no facts exist for it, so the proof cannot go through.
//
//redvet:hotpath
func unknown(n int) string {
	return strconv.Itoa(n) // want `hot path unknown calls strconv\.Itoa, whose allocation behavior is unknown \(no facts for its package\)`
}

// push is the sanctioned steady-state shape: reslice-push with growth
// split into a coldstart callee.  Fully clean.
//
//redvet:hotpath
func push(s []int, v int) []int {
	if len(s) == cap(s) {
		s = growSlice(s)
	}
	n := len(s)
	s = s[:n+1]
	s[n] = v
	return s
}

// growSlice doubles capacity off the steady-state path.
//
//redvet:coldstart — fixture: amortized growth sanctioned by the pool contract
func growSlice(s []int) []int {
	ns := make([]int, len(s), 2*cap(s)+1)
	copy(ns, s)
	return ns
}

//redvet:hotpath
//redvet:coldstart — fixture: conflicting markers
func confused() {} // want `confused is marked both hotpath and coldstart; pick one`

// guard shows the panic exemption: allocations that only build a panic
// value sit on the crash path, not the hot path.
//
//redvet:hotpath
func guard(ok bool) {
	if !ok {
		panic(fmt.Sprintf("guard violated: %v", ok))
	}
}

// sanctioned suppresses a known one-time allocation with a justified
// //redvet:alloc directive; the suppression also keeps the fact
// AllocFree so callers stay provable.
//
//redvet:hotpath
func sanctioned() []int {
	return make([]int, 8) //redvet:alloc — fixture: one-time setup buffer, amortized over the run
}

// dynamic calls through a func value: a component boundary the static
// proof deliberately trusts (the callee is proven at its own site).
//
//redvet:hotpath
func dynamic(f func() int) int { return f() }

type submitter interface{ submit(*point) }

// handoff passes a local's address through an interface call: the
// compiler cannot prove the callee keeps no reference, so the local
// moves to the heap.  Passing on a pointer it was given moves nothing.
//
//redvet:hotpath
func handoff(sub submitter, f func(*point), q *point) {
	p := *q
	sub.submit(&p) // want `address of local p escapes through a dynamic call`
	f(&p)          // want `address of local p escapes through a dynamic call`
	sub.submit(q)
}
