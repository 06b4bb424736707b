// Package fault is the deterministic fault-injection subsystem: a
// seeded, engine-clock-driven model of the hardware failure modes the
// RedCache design exposes itself to by spending the HBM cache's ECC
// bits on metadata (§III).  The injector answers five questions the
// controllers ask on their steady-state paths —
//
//   - did this TAD probe read a corrupted tag, and did the parity code
//     catch it? (TagProbe)
//   - did this r-count read come back corrupted? (ReadRCount)
//   - did this demand read from the no-ECC data region return silently
//     corrupted data? (DataRead)
//   - did this row activation fail and need a retry? (RowActivate)
//   - did this data burst take a transient bus error? (BusBurst)
//
// Each question draws from its own splitmix64 stream seeded from
// (fault seed, domain), so enabling or re-rating one domain never
// perturbs another's draw sequence, and a fixed (workload seed, fault
// seed) pair reproduces bit-identical simulation results.  A nil
// *Injector answers "no" to everything at the cost of one nil check,
// mirroring the nil *obs.Tracer convention, and every query is
// statically allocation-free (//redvet:hotpath).
//
// The injector deliberately models *consequences*, not bit positions:
// detection and degradation policy lives in the controllers (hbm, dram)
// and the injector only decides occurrence and detectability, then
// counts how each fault was disposed of in Stats.
package fault

import (
	"redcache/internal/config"
	"redcache/internal/obs"
)

// domain indexes one independent PRNG stream.
type domain int

const (
	domTag domain = iota
	domTagEscape
	domRCount
	domData
	domRow
	domBus

	numDomains
)

// TagOutcome is the result of filtering one TAD tag probe.
type TagOutcome uint8

const (
	// TagOK: the tag field read back intact.
	TagOK TagOutcome = iota
	// TagDetected: the tag was corrupted and the modeled parity check
	// caught it; the controller must treat the frame as a conservative
	// miss and drop its contents.
	TagDetected
	// TagSilent: the tag was corrupted and escaped the parity check; the
	// access proceeds on wrong metadata (a silent corruption).
	TagSilent
)

// Stats counts injected faults by domain and disposition.  They are
// deliberately kept out of hbm.Stats so the fault-free golden results
// (which render hbm.Stats verbatim) are untouched by this subsystem.
type Stats struct {
	// TagFaults is the total corrupted tag probes (detected + silent).
	TagFaults int64
	// TagDetected counts tag corruptions the parity code caught; each
	// one degraded a (possible) hit into a conservative miss.
	TagDetected int64
	// TagSilent counts tag corruptions that escaped parity and were
	// consumed as-is.
	TagSilent int64
	// DirtyDropped counts detected tag faults that invalidated a dirty
	// frame — modified data that never reached main memory.
	DirtyDropped int64
	// RCountFaults counts corrupted r-count reads; the controller
	// clamps each to zero, perturbing γ adaptation.
	RCountFaults int64
	// SilentData counts demand reads served from the no-ECC HBM data
	// region that carried an undetected corruption.
	SilentData int64
	// RowFaults counts failed row activations (detected and retried at
	// a precharge-activate penalty).
	RowFaults int64
	// BusFaults counts transient bus errors (detected by link CRC and
	// retransmitted, doubling the burst occupancy).
	BusFaults int64
}

// Detected sums the faults the machine caught and degraded gracefully.
func (s *Stats) Detected() int64 {
	return s.TagDetected + s.RowFaults + s.BusFaults
}

// Silent sums the corruptions that escaped detection.  RCountFaults sit
// in between — the value is wrong but the blast radius is only the γ
// estimator — so they are reported separately.
func (s *Stats) Silent() int64 {
	return s.TagSilent + s.SilentData
}

// Injector is one run's fault source.  All state is plain scalars; the
// query methods mutate only the injector's own fields, so a single
// injector is shared by the HBM controller and both DRAM channel models
// (the engine is single-threaded, keeping the draw order deterministic).
type Injector struct {
	state [numDomains]uint64 // per-domain splitmix64 states
	thr   [numDomains]uint64 // fixed-point P(fault) thresholds; 0 = never
	s     Stats
	tr    *obs.Tracer
}

// New builds an injector for cfg, or nil when every domain is disabled
// — callers pass the nil straight through and pay only nil checks.
func New(cfg config.Faults) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	inj := &Injector{}
	for d := domain(0); d < numDomains; d++ {
		// Decorrelate domains by burning the seed through one splitmix64
		// step per domain index before stream use.
		st := uint64(cfg.Seed)
		for i := domain(0); i <= d; i++ {
			st = mix64(st + golden)
		}
		inj.state[d] = st
	}
	inj.thr[domTag] = threshold(cfg.TagFlip)
	inj.thr[domTagEscape] = threshold(cfg.TagEscape)
	inj.thr[domRCount] = threshold(cfg.RCountFlip)
	inj.thr[domData] = threshold(cfg.DataFlip)
	inj.thr[domRow] = threshold(cfg.RowFail)
	inj.thr[domBus] = threshold(cfg.BusError)
	return inj
}

// SetTracer wires the structured event trace (nil is fine).
func (inj *Injector) SetTracer(tr *obs.Tracer) {
	if inj != nil {
		inj.tr = tr
	}
}

// Stats exposes the fault counters (nil-safe zero view for callers that
// report unconditionally).
func (inj *Injector) Stats() *Stats {
	if inj == nil {
		return &Stats{}
	}
	return &inj.s
}

// RegisterProbes registers the fault counters with the telemetry
// registry under the "fault." prefix.  Probe closures only *read*
// injector state, matching the statspath contract.
func (inj *Injector) RegisterProbes(r *obs.Registry) {
	if inj == nil {
		return
	}
	r.Counter("fault.tag_detected", func() int64 { return inj.s.TagDetected })
	r.Counter("fault.tag_silent", func() int64 { return inj.s.TagSilent })
	r.Counter("fault.dirty_dropped", func() int64 { return inj.s.DirtyDropped })
	r.Counter("fault.rcount", func() int64 { return inj.s.RCountFaults })
	r.Counter("fault.silent_data", func() int64 { return inj.s.SilentData })
	r.Counter("fault.row", func() int64 { return inj.s.RowFaults })
	r.Counter("fault.bus", func() int64 { return inj.s.BusFaults })
}

const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 output function (Steele et al.); with the
// additive golden-ratio state walk it forms an equidistributed 64-bit
// stream that is pure integer arithmetic — provably allocation-free.
//
//redvet:hotpath
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// threshold converts a probability into the fixed-point compare value:
// a fault fires when the next 64-bit draw is below rate·2⁶⁴.
func threshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return ^uint64(0)
	}
	v := rate * 0x1p64
	if v >= 0x1p64 {
		return ^uint64(0)
	}
	return uint64(v)
}

// hit draws the domain's next variate and reports whether a fault
// fires.  A zero-rate domain never advances its stream, so disabled
// domains cost one load-and-compare and stay out of the draw order.
//
//redvet:hotpath
func (inj *Injector) hit(d domain) bool {
	t := inj.thr[d]
	if t == 0 {
		return false
	}
	inj.state[d] += golden
	return mix64(inj.state[d]) < t
}

// TagProbe filters one TAD tag read.  addr is the probed block address
// and dirty reports whether the resident frame held modified data (for
// loss accounting when a detected fault forces the frame to be
// dropped).  Nil-safe; zero allocations.
//
//redvet:hotpath
func (inj *Injector) TagProbe(addr uint64, dirty bool) TagOutcome {
	if inj == nil || !inj.hit(domTag) {
		return TagOK
	}
	inj.s.TagFaults++
	if inj.hit(domTagEscape) {
		inj.s.TagSilent++
		inj.tr.Emit(obs.EvFaultTagSilent, addr, 0, 0)
		return TagSilent
	}
	inj.s.TagDetected++
	if dirty {
		inj.s.DirtyDropped++
	}
	inj.tr.Emit(obs.EvFaultTagDetected, addr, boolTo64(dirty), 0)
	return TagDetected
}

// ReadRCount filters one r-count read from the spare ECC bits: a
// corrupted read is clamped to zero (the controller's reset policy —
// the block looks freshly installed to the γ machinery, which is safe
// but perturbs adaptation).  Nil-safe; zero allocations.
//
//redvet:hotpath
func (inj *Injector) ReadRCount(addr uint64, v uint8) uint8 {
	if inj == nil || !inj.hit(domRCount) {
		return v
	}
	inj.s.RCountFaults++
	inj.tr.Emit(obs.EvFaultRCount, addr, int64(v), 0)
	return 0
}

// DataRead accounts one demand read served out of the no-ECC HBM data
// region; a firing fault is a silent corruption handed to the CPU.
// Nil-safe; zero allocations.
//
//redvet:hotpath
func (inj *Injector) DataRead(addr uint64) {
	if inj == nil || !inj.hit(domData) {
		return
	}
	inj.s.SilentData++
	inj.tr.Emit(obs.EvFaultData, addr, 0, 0)
}

// RowActivate reports whether this row activation fails and must be
// retried (the channel model charges an extra precharge-activate).
// Nil-safe; zero allocations.
//
//redvet:hotpath
func (inj *Injector) RowActivate(ch, rank, bank int, row int64) bool {
	if inj == nil || !inj.hit(domRow) {
		return false
	}
	inj.s.RowFaults++
	inj.tr.Emit(obs.EvFaultRow, rowAddr(ch, rank, bank), row, 0)
	return true
}

// BusBurst reports whether this data burst takes a transient bus error
// and is retransmitted (the channel model doubles the burst occupancy).
// Nil-safe; zero allocations.
//
//redvet:hotpath
func (inj *Injector) BusBurst(ch int, bytes int) bool {
	if inj == nil || !inj.hit(domBus) {
		return false
	}
	inj.s.BusFaults++
	inj.tr.Emit(obs.EvFaultBus, uint64(ch), int64(bytes), 0)
	return true
}

//redvet:hotpath
func rowAddr(ch, rank, bank int) uint64 {
	return uint64(ch)<<32 | uint64(rank)<<16 | uint64(bank)
}

//redvet:hotpath
func boolTo64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
