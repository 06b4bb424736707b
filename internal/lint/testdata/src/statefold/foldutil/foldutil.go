// Package foldutil holds the shared accumulator struct and fold
// helpers for the statefold fixture.  It lives in its own package so
// the fixture exercises cross-package FoldCovers facts: a helper here
// can discharge a field obligation in the importing package.
package foldutil

// Shadow is a stats-shaped per-component accumulator.
type Shadow struct {
	Reads  int64
	Writes int64
	Stalls int64
	//redvet:foldexempt — identity label set at construction, never accumulated; folds and resets must preserve it
	Label string
}

// AddStalls folds the stall counter only.  Partial helpers carry no
// exhaustiveness obligation of their own (no fold-family name); they
// just export FoldCovers facts for the fields they touch.
func AddStalls(dst, src *Shadow) {
	dst.Stalls += src.Stalls
}
