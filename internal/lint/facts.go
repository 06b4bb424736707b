package lint

import (
	"encoding/json"
	"fmt"
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
	Alloc AllocClass `json:"alloc,omitempty"`
	// AllocVia names the callee or site that forced Alloc==Allocates,
	// for diagnosis across package boundaries.
	AllocVia string `json:"allocVia,omitempty"`
	// Hotpath records the //redvet:hotpath annotation, so runtime-guard
	// agreement tests and cross-package diagnostics can see it.
	Hotpath bool `json:"hotpath,omitempty"`

	// NSReturn marks result i as carrying nanosecond-domain taint.
	NSReturn []bool `json:"nsReturn,omitempty"`
	// ReturnFromParam marks result i as derived from parameter j
	// (identity-ish flow: the return is tainted iff the argument is).
	ReturnFromParam [][]bool `json:"returnFromParam,omitempty"`
	// NSSinkParam marks parameter i as flowing into an engine
	// scheduling delay/deadline argument (directly or transitively).
	NSSinkParam []bool `json:"nsSinkParam,omitempty"`

	// Nondet, when non-empty, says why the detsched analyzer considers
	// this function scheduling-nondeterministic ("go statement", "calls
	// pkg.F (go statement)", ...).  Empty means statically proven to
	// order all simulated-time effects through the engine's (at, seq)
	// total order.
	Nondet string `json:"nondet,omitempty"`

	// UnorderedReturn marks result i as a slice whose element order is
	// not deterministic (gathered from a map range and never sorted).
	UnorderedReturn []bool `json:"unorderedReturn,omitempty"`
	// FloatReduceParam marks parameter i as a slice the function reduces
	// into a float accumulator in iteration order — passing an unordered
	// slice makes the result order-dependent (fporder).
	FloatReduceParam []bool `json:"floatReduceParam,omitempty"`

	// FoldCovers maps a subject type key ("pkg/path.TypeName") to the
	// sorted field paths this function folds/merges/resets on a
	// receiver- or parameter-rooted value of that type ("*" covers the
	// whole struct).  Exported by statefold; makes fold-exhaustiveness
	// proofs transitive across helper calls and package boundaries.
	FoldCovers map[string][]string `json:"foldCovers,omitempty"`

	// WallRet marks result i as wall-clock-derived (wallflow).
	WallRet []bool `json:"wallRet,omitempty"`
	// WallRetFromParam marks result i as inheriting wall taint from
	// parameter j.
	WallRetFromParam [][]bool `json:"wallRetFromParam,omitempty"`
	// WallSinkParam marks parameter i as flowing into a deterministic
	// sink (sim state, engine schedule, deterministic exporter) — a
	// transitive wallflow sink.
	WallSinkParam []bool `json:"wallSinkParam,omitempty"`
}

// PackageFacts groups one package's exported facts for serialization.
type PackageFacts struct {
	// Funcs maps types.Func FullName -> facts.
	Funcs map[string]*FuncFacts `json:"funcs,omitempty"`
	// Tainted maps field/channel keys ("pkg.Type.field", "pkg.var") that
	// have been observed holding nanosecond-domain values to a short
	// reason string describing the write that tainted them.
	Tainted map[string]string `json:"tainted,omitempty"`
	// State maps type names annotated //redvet:state in this package
	// to the annotation's justification (may be empty — the marker adds
	// obligations, it doesn't suppress).  statefold holds their
	// fold-family and checkpoint codec functions field-exhaustive.
	State map[string]string `json:"state,omitempty"`
	// FoldExempt maps field keys ("TypeName.field") of types declared in
	// this package to the //redvet:foldexempt justification: the field is
	// deliberately outside the fold-exhaustiveness proof (statefold).
	FoldExempt map[string]string `json:"foldExempt,omitempty"`
	// WallFields maps field keys that have been observed holding
	// wall-clock-derived values to a reason string (wallflow).
	WallFields map[string]string `json:"wallFields,omitempty"`
}

// FactStore is the session-wide cross-package fact database.
type FactStore struct {
	pkgs   map[string]*PackageFacts
	sealed map[string]bool
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{pkgs: make(map[string]*PackageFacts), sealed: make(map[string]bool)}
}

// HasPackage reports whether facts for pkgPath are present (computed
// this session or imported from a cache).
func (s *FactStore) HasPackage(pkgPath string) bool { return s.sealed[pkgPath] }

// sealPackage marks a package's fact phase complete.
func (s *FactStore) sealPackage(pkgPath string) { s.sealed[pkgPath] = true }

func (s *FactStore) pkg(pkgPath string) *PackageFacts {
	pf := s.pkgs[pkgPath]
	if pf == nil {
		pf = &PackageFacts{
			Funcs:      make(map[string]*FuncFacts),
			Tainted:    make(map[string]string),
			State:      make(map[string]string),
			FoldExempt: make(map[string]string),
			WallFields: make(map[string]string),
		}
		s.pkgs[pkgPath] = pf
	}
	return pf
}

// FuncKey returns the stable fact key for fn ("pkg.F",
// "(pkg.T).M" or "(*pkg.T).M").
func FuncKey(fn *types.Func) string { return fn.FullName() }

// SetFunc records facts for fn.
func (s *FactStore) SetFunc(fn *types.Func, ff *FuncFacts) {
	if fn.Pkg() == nil {
		return // builtins like error.Error have no package
	}
	s.pkg(fn.Pkg().Path()).Funcs[FuncKey(fn)] = ff
}

// EnsureFunc returns the (mutable) facts for fn, creating an empty
// record on first use.  Analyzers each own disjoint fields of
// FuncFacts, so they merge through this instead of SetFunc.
func (s *FactStore) EnsureFunc(fn *types.Func) *FuncFacts {
	if fn.Pkg() == nil {
		return &FuncFacts{} // detached scratch record
	}
	pf := s.pkg(fn.Pkg().Path())
	key := FuncKey(fn)
	ff := pf.Funcs[key]
	if ff == nil {
		ff = &FuncFacts{}
		pf.Funcs[key] = ff
	}
	return ff
}

// Func returns the facts recorded for fn, or nil.
func (s *FactStore) Func(fn *types.Func) *FuncFacts {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	pf := s.pkgs[fn.Pkg().Path()]
	if pf == nil {
		return nil
	}
	return pf.Funcs[FuncKey(fn)]
}

// FuncByKey looks a function fact up by package path and full name
// (for tests and the driver's -facts debugging output).
func (s *FactStore) FuncByKey(pkgPath, fullName string) *FuncFacts {
	pf := s.pkgs[pkgPath]
	if pf == nil {
		return nil
	}
	return pf.Funcs[fullName]
}

// Taint records that key (a field or package-level variable/channel)
// has been observed holding a nanosecond-domain value.
func (s *FactStore) Taint(pkgPath, key, reason string) {
	pf := s.pkg(pkgPath)
	if _, ok := pf.Tainted[key]; !ok {
		pf.Tainted[key] = reason
	}
}

// TaintReason returns the recorded taint reason for key, or "" if the
// key is clean.
func (s *FactStore) TaintReason(pkgPath, key string) (string, bool) {
	pf := s.pkgs[pkgPath]
	if pf == nil {
		return "", false
	}
	r, ok := pf.Tainted[key]
	return r, ok
}

// MarkState records that typeName (declared in pkgPath) carries the
// //redvet:state marker.
func (s *FactStore) MarkState(pkgPath, typeName, justification string) {
	s.pkg(pkgPath).State[typeName] = justification
}

// IsState reports whether typeName in pkgPath is annotated
// //redvet:state.
func (s *FactStore) IsState(pkgPath, typeName string) bool {
	pf := s.pkgs[pkgPath]
	if pf == nil {
		return false
	}
	_, ok := pf.State[typeName]
	return ok
}

// MarkFoldExempt records that field fieldKey ("TypeName.field") of a
// type declared in pkgPath carries //redvet:foldexempt.
func (s *FactStore) MarkFoldExempt(pkgPath, fieldKey, justification string) {
	s.pkg(pkgPath).FoldExempt[fieldKey] = justification
}

// IsFoldExempt reports whether fieldKey in pkgPath is annotated
// //redvet:foldexempt.
func (s *FactStore) IsFoldExempt(pkgPath, fieldKey string) bool {
	pf := s.pkgs[pkgPath]
	if pf == nil {
		return false
	}
	_, ok := pf.FoldExempt[fieldKey]
	return ok
}

// TaintWall records that fieldKey has been observed holding a
// wall-clock-derived value.
func (s *FactStore) TaintWall(pkgPath, fieldKey, reason string) bool {
	pf := s.pkg(pkgPath)
	if _, ok := pf.WallFields[fieldKey]; ok {
		return false
	}
	pf.WallFields[fieldKey] = reason
	return true
}

// WallReason returns the wall-taint reason for fieldKey, if recorded.
func (s *FactStore) WallReason(pkgPath, fieldKey string) (string, bool) {
	pf := s.pkgs[pkgPath]
	if pf == nil {
		return "", false
	}
	r, ok := pf.WallFields[fieldKey]
	return r, ok
}

// HotpathFuncs returns the FullName keys of every function annotated
// //redvet:hotpath in pkgPath, sorted (for the static/runtime guard
// agreement test).
func (s *FactStore) HotpathFuncs(pkgPath string) []string {
	pf := s.pkgs[pkgPath]
	if pf == nil {
		return nil
	}
	var out []string
	for name, ff := range pf.Funcs {
		if ff.Hotpath {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ExportPackage serializes one package's facts as deterministic JSON
// (sorted keys, via encoding/json's map ordering).
func (s *FactStore) ExportPackage(pkgPath string) ([]byte, error) {
	pf := s.pkgs[pkgPath]
	if pf == nil {
		pf = &PackageFacts{}
	}
	return json.MarshalIndent(pf, "", "\t")
}

// ImportPackage installs previously exported facts for pkgPath and
// seals it, so the Session's fact phases skip the package.
func (s *FactStore) ImportPackage(pkgPath string, data []byte) error {
	var pf PackageFacts
	if err := json.Unmarshal(data, &pf); err != nil {
		return fmt.Errorf("facts for %s: %v", pkgPath, err)
	}
	if pf.Funcs == nil {
		pf.Funcs = make(map[string]*FuncFacts)
	}
	if pf.Tainted == nil {
		pf.Tainted = make(map[string]string)
	}
	if pf.State == nil {
		pf.State = make(map[string]string)
	}
	if pf.FoldExempt == nil {
		pf.FoldExempt = make(map[string]string)
	}
	if pf.WallFields == nil {
		pf.WallFields = make(map[string]string)
	}
	s.pkgs[pkgPath] = &pf
	s.sealPackage(pkgPath)
	return nil
}
