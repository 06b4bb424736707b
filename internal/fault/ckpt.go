package fault

import (
	"fmt"

	"redcache/internal/ckpt"
)

const tagFault = 0x464c5431 // "FLT1"

// SaveState serializes the injector's PRNG streams and fault counters.
// Nil-safe: a fault-free run writes a one-byte absence marker, so the
// payload layout stays aligned whether or not injection is enabled.
// The rate thresholds are configuration (rebuilt by New) and are
// written only to be verified at load.
func (inj *Injector) SaveState(w *ckpt.Writer) {
	w.Tag(tagFault)
	w.Bool(inj != nil)
	if inj == nil {
		return
	}
	_ = inj.tr // wiring, not state: reattached by SetTracer at wire-up
	for d := 0; d < int(numDomains); d++ {
		w.U64(inj.state[d])
		w.U64(inj.thr[d])
	}
	w.I64(inj.s.TagFaults)
	w.I64(inj.s.TagDetected)
	w.I64(inj.s.TagSilent)
	w.I64(inj.s.DirtyDropped)
	w.I64(inj.s.RCountFaults)
	w.I64(inj.s.SilentData)
	w.I64(inj.s.RowFaults)
	w.I64(inj.s.BusFaults)
}

// LoadState restores the injector.  The receiver must match the saved
// presence (the manifest's fault spec pins it, so a disagreement here
// is file corruption, not a user mistake).
func (inj *Injector) LoadState(r *ckpt.Reader) error {
	r.Tag(tagFault)
	present := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if present != (inj != nil) {
		return fmt.Errorf("fault: checkpoint injector presence %v, machine wired %v: %w",
			present, inj != nil, ckpt.ErrCorrupt)
	}
	if inj == nil {
		return nil
	}
	_ = inj.tr // wiring, not state: reattached by SetTracer at wire-up
	for d := 0; d < int(numDomains); d++ {
		inj.state[d] = r.U64()
		if thr := r.U64(); r.Err() == nil && thr != inj.thr[d] {
			return fmt.Errorf("fault: domain %d threshold %#x, machine wired %#x: %w",
				d, thr, inj.thr[d], ckpt.ErrCorrupt)
		}
	}
	inj.s.TagFaults = r.I64()
	inj.s.TagDetected = r.I64()
	inj.s.TagSilent = r.I64()
	inj.s.DirtyDropped = r.I64()
	inj.s.RCountFaults = r.I64()
	inj.s.SilentData = r.I64()
	inj.s.RowFaults = r.I64()
	inj.s.BusFaults = r.I64()
	return r.Err()
}
