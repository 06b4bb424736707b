// Package statefold is the fixture for the statefold analyzer: every
// fold/merge/snapshot/delta/reset function over a stats-shaped struct
// must handle every field — fold it, reset it, delegate it to a helper
// whose FoldCovers facts prove coverage, or carry a //redvet:foldexempt
// justification on the field declaration.  Structs holding pointers,
// slices or funcs are not fold subjects.
package statefold

import "redcache/internal/lint/testdata/src/statefold/foldutil"

type owner struct {
	total foldutil.Shadow
}

// FoldCountersBad folds Reads and Writes but silently drops Stalls — the
// classic stat-loss bug the analyzer exists to catch.
func (o *owner) FoldCountersBad(src *foldutil.Shadow) { // want `fold-family function FoldCountersBad drops field Shadow\.Stalls of base o\.total`
	o.total.Reads += src.Reads
	o.total.Writes += src.Writes
}

// FoldCountersGood handles every field: two locally, Stalls through a
// cross-package helper whose FoldCovers facts complete the proof, and
// Label by its declaration-site exemption.
func (o *owner) FoldCountersGood(src *foldutil.Shadow) {
	o.total.Reads += src.Reads
	o.total.Writes += src.Writes
	foldutil.AddStalls(&o.total, src)
}

// resetMasked shows that a trailing zero-struct store cannot mask a
// dropped field: the per-field resets obligate the base, and the
// zero-composite assignment is deliberately inert.
func resetMasked(s *foldutil.Shadow) { // want `reset-family function resetMasked drops field Shadow\.Stalls of base s`
	s.Reads = 0
	s.Writes = 0
	*s = foldutil.Shadow{}
}

// snapshotWhole copies the whole value: exhaustive by construction,
// no per-field obligation arises.
func snapshotWhole(s *foldutil.Shadow) foldutil.Shadow { return *s }

// deltaKeyed builds a keyed composite literal, which is its own
// obligated base: listing only some fields drops the rest.
func deltaKeyed(cur, prev foldutil.Shadow) foldutil.Shadow { // want `delta-family function deltaKeyed drops field Shadow\.Stalls of base Shadow literal`
	return foldutil.Shadow{
		Reads:  cur.Reads - prev.Reads,
		Writes: cur.Writes - prev.Writes,
	}
}

// deltaFull lists every non-exempt field: clean.
func deltaFull(cur, prev foldutil.Shadow) foldutil.Shadow {
	return foldutil.Shadow{
		Reads:  cur.Reads - prev.Reads,
		Writes: cur.Writes - prev.Writes,
		Stalls: cur.Stalls - prev.Stalls,
	}
}
