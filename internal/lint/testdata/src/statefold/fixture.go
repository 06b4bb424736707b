// Package statefold is the fixture for the statefold analyzer: every
// fold/merge/snapshot/delta/reset function over a stats-shaped (or
// //redvet:state-marked) struct must handle every field — fold
// it, reset it, delegate it to a helper whose FoldCovers facts prove
// coverage, or carry a //redvet:foldexempt justification on the field
// declaration.
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

// ring is not stats-shaped (the pointer field): the //redvet:state
// marker alone makes it a fold subject.
//
//redvet:state
type ring struct {
	head *int
	seen int64
}

// mergeRing folds the counter but forgets to hand over the buffer head.
func mergeRing(dst, src *ring) { // want `merge-family function mergeRing drops field ring\.head of base dst`
	dst.seen += src.seen
}

// sink and source stand in for the checkpoint Writer/Reader: methods
// only, so they never become fold subjects themselves.
type sink struct{ buf []int64 }

func (w *sink) i64(v int64) { w.buf = append(w.buf, v) }

type source struct {
	buf []int64
	off int
}

func (r *source) i64() int64 { v := r.buf[r.off]; r.off++; return v }

// saveStateBad serializes Reads and Writes but drops Stalls: the
// checkpoint is silently lossy, and the restore-time state diverges.
// In save-family functions every chain READ obligates its base.
func saveStateBad(w *sink, s *foldutil.Shadow) { // want `save-family function saveStateBad drops field Shadow\.Stalls of base s`
	w.i64(s.Reads)
	w.i64(s.Writes)
}

// saveStateGood serializes every non-exempt field.
func saveStateGood(w *sink, s *foldutil.Shadow) {
	w.i64(s.Reads)
	w.i64(s.Writes)
	w.i64(s.Stalls)
}

// saveRing uses the wiring-read idiom: head is rebuilt at restore, and
// the deliberate `_ = s.head` read records that decision for the lint.
func saveRing(w *sink, s *ring) {
	_ = s.head
	w.i64(s.seen)
}

// loadStateBad restores Reads and Writes but drops Stalls — the codec
// pair decodes fewer fields than saveStateGood wrote.
func loadStateBad(r *source, s *foldutil.Shadow) { // want `load-family function loadStateBad drops field Shadow\.Stalls of base s`
	s.Reads = r.i64()
	s.Writes = r.i64()
}

// loadStateGood stores every non-exempt field.
func loadStateGood(r *source, s *foldutil.Shadow) {
	s.Reads = r.i64()
	s.Writes = r.i64()
	s.Stalls = r.i64()
}
