package lint

import (
	"go/types"
	"sort"
)

// AllocClass classifies a function for the noalloc analyzer.
type AllocClass uint8

const (
	// AllocUnknown: no fact computed (external package, dynamic call
	// target, or function value).  Treated as allocating by callers.
	AllocUnknown AllocClass = iota
	// AllocFree: statically proven to perform no heap allocation, modulo
	// calls to AllocCold callees (sanctioned amortized warm-up).
	AllocFree
	// AllocCold: annotated //redvet:coldstart — allocates by design
	// (pool refill, ring growth) and is callable from hot paths.
	AllocCold
	// Allocates: contains at least one allocation site, or calls a
	// function that does.
	Allocates
)

func (c AllocClass) String() string {
	switch c {
	case AllocFree:
		return "alloc-free"
	case AllocCold:
		return "coldstart"
	case Allocates:
		return "allocates"
	}
	return "unknown"
}

// FuncFacts are the exported per-function facts, keyed by the
// function's types.Func FullName (stable across packages and between a
// source-typechecked definition and an export-data import of it).
type FuncFacts struct {
	// Alloc is the noalloc classification.
	Alloc AllocClass
	// AllocVia names the callee or site that forced Alloc==Allocates,
	// for diagnosis across package boundaries.
	AllocVia string
	// Hotpath records the //redvet:hotpath annotation, so runtime-guard
	// agreement tests and cross-package diagnostics can see it.
	Hotpath bool

	// Nondet, when non-empty, says why the detsched analyzer considers
	// this function scheduling-nondeterministic ("go statement", "calls
	// pkg.F (go statement)", ...).  Empty means statically proven to
	// order all simulated-time effects through the engine's (at, seq)
	// total order.
	Nondet string

	// UnorderedReturn marks result i as a slice whose element order is
	// not deterministic (gathered from a map range and never sorted).
	UnorderedReturn []bool
	// FloatReduceParam marks parameter i as a slice the function reduces
	// into a float accumulator in iteration order — passing an unordered
	// slice makes the result order-dependent (fporder).
	FloatReduceParam []bool
}

// FactStore is the session-wide cross-package fact database: per
// package path, the facts of each function keyed by FullName.
type FactStore struct {
	pkgs map[string]map[string]*FuncFacts
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{pkgs: make(map[string]map[string]*FuncFacts)}
}

func (s *FactStore) pkg(pkgPath string) map[string]*FuncFacts {
	funcs := s.pkgs[pkgPath]
	if funcs == nil {
		funcs = make(map[string]*FuncFacts)
		s.pkgs[pkgPath] = funcs
	}
	return funcs
}

// FuncKey returns the stable fact key for fn ("pkg.F",
// "(pkg.T).M" or "(*pkg.T).M").
func FuncKey(fn *types.Func) string { return fn.FullName() }

// SetFunc records facts for fn.
func (s *FactStore) SetFunc(fn *types.Func, ff *FuncFacts) {
	if fn.Pkg() == nil {
		return // builtins like error.Error have no package
	}
	s.pkg(fn.Pkg().Path())[FuncKey(fn)] = ff
}

// EnsureFunc returns the (mutable) facts for fn, creating an empty
// record on first use.  Analyzers each own disjoint fields of
// FuncFacts, so they merge through this instead of SetFunc.
func (s *FactStore) EnsureFunc(fn *types.Func) *FuncFacts {
	if fn.Pkg() == nil {
		return &FuncFacts{} // detached scratch record
	}
	funcs := s.pkg(fn.Pkg().Path())
	key := FuncKey(fn)
	ff := funcs[key]
	if ff == nil {
		ff = &FuncFacts{}
		funcs[key] = ff
	}
	return ff
}

// Func returns the facts recorded for fn, or nil.
func (s *FactStore) Func(fn *types.Func) *FuncFacts {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return s.pkgs[fn.Pkg().Path()][FuncKey(fn)]
}

// HotpathFuncs returns the FullName keys of every function annotated
// //redvet:hotpath in pkgPath, sorted (for the static/runtime guard
// agreement test).
func (s *FactStore) HotpathFuncs(pkgPath string) []string {
	var out []string
	for name, ff := range s.pkgs[pkgPath] {
		if ff.Hotpath {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
