package config

import (
	"fmt"
	"strconv"
	"strings"
)

// Faults is a fault-rate specification.  Every rate is a per-event
// Bernoulli probability in [0, 1]: per TAD tag probe, per r-count read,
// per HBM data read, per DRAM row activation, per data burst.  The zero
// value is the disabled specification.
//
// The rates describe the reliability cost of RedCache's central storage
// trick (§III): the per-block r-count lives in the spare ECC bits next
// to the tag, so the data region of the HBM cache runs without ECC and
// tag/metadata integrity rests on a simple parity code.  No simulator
// component reads a Faults value.
type Faults struct {
	// Seed is the fault PRNG seed carried alongside the rates.
	Seed int64

	// TagFlip is the probability that a TAD probe reads a corrupted tag
	// field out of the spare ECC bits.
	TagFlip float64
	// TagEscape is the conditional probability that a corrupted tag
	// escapes the modeled parity check and is consumed as-is (a silent
	// wrong-data hit) instead of degrading to a conservative miss.
	TagEscape float64
	// RCountFlip is the probability that an r-count read from the spare
	// ECC bits is corrupted; the controller clamps/resets it to zero.
	RCountFlip float64
	// DataFlip is the probability that a demand read served from the
	// no-ECC HBM data region carries a silent corruption.
	DataFlip float64
	// RowFail is the probability that a DRAM row activation fails and
	// must be retried (detected; costs an extra precharge-activate).
	RowFail float64
	// BusError is the probability of a transient bus error on a data
	// burst (detected by link CRC; the burst is retransmitted).
	BusError float64
}

// DefaultFaults returns the "default" rate set: high enough that short
// evaluation runs would accumulate visible counts in every domain,
// ordered the way hardware failure modes are (bus and data upsets
// common, whole-row failures rare).
func DefaultFaults() Faults {
	return Faults{
		Seed:       1,
		TagFlip:    1e-3,
		TagEscape:  0.1,
		RCountFlip: 1e-3,
		DataFlip:   2e-4,
		RowFail:    2e-5,
		BusError:   2e-4,
	}
}

// Enabled reports whether any fault domain has a nonzero rate.
func (f *Faults) Enabled() bool {
	return f.TagFlip > 0 || f.RCountFlip > 0 || f.DataFlip > 0 ||
		f.RowFail > 0 || f.BusError > 0
}

// Validate checks every probability is in [0, 1] (and not NaN).
func (f *Faults) Validate() error {
	for _, x := range []struct {
		name string
		v    float64
	}{
		{"tag", f.TagFlip}, {"tagescape", f.TagEscape},
		{"rcount", f.RCountFlip}, {"data", f.DataFlip},
		{"row", f.RowFail}, {"bus", f.BusError},
	} {
		if !(x.v >= 0 && x.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("config: fault rate %s=%v outside [0, 1]", x.name, x.v)
		}
	}
	return nil
}

// Scaled returns a copy with every occurrence rate multiplied by m
// (clamped to 1).  The conditional parity-escape probability is a code
// property, not an event rate, so it is left unscaled.
func (f Faults) Scaled(m float64) Faults {
	clamp := func(x float64) float64 {
		x *= m
		if x > 1 {
			x = 1
		}
		if !(x >= 0) {
			x = 0
		}
		return x
	}
	f.TagFlip = clamp(f.TagFlip)
	f.RCountFlip = clamp(f.RCountFlip)
	f.DataFlip = clamp(f.DataFlip)
	f.RowFail = clamp(f.RowFail)
	f.BusError = clamp(f.BusError)
	return f
}

// Spec renders the rate set in the syntax ParseFaults accepts, in a
// fixed key order; the Seed is not rendered.  A disabled configuration
// renders as "off".
func (f *Faults) Spec() string {
	if !f.Enabled() {
		return "off"
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return "tag=" + g(f.TagFlip) +
		",tagescape=" + g(f.TagEscape) +
		",rcount=" + g(f.RCountFlip) +
		",data=" + g(f.DataFlip) +
		",row=" + g(f.RowFail) +
		",bus=" + g(f.BusError)
}

// ParseFaults parses a fault specification.  Accepted forms:
//
//	""            -> disabled (zero Faults)
//	"off"         -> disabled
//	"default"     -> DefaultFaults()
//	"k=v,k=v,..." -> explicit rates (keys: tag, tagescape, rcount,
//	                 data, row, bus); may start with "default" to
//	                 override individual rates, e.g. "default,row=1e-3"
//
// The result is validated; the Seed field is left at the preset's
// value.
func ParseFaults(spec string) (Faults, error) {
	var f Faults
	spec = strings.TrimSpace(spec)
	switch spec {
	case "", "off":
		return f, nil
	case "default", "on":
		return DefaultFaults(), nil
	}
	for i, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "default" && i == 0 {
			f = DefaultFaults()
			continue
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return Faults{}, fmt.Errorf("config: fault spec item %q is not key=value", item)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return Faults{}, fmt.Errorf("config: fault rate %q: %w", item, err)
		}
		switch strings.TrimSpace(k) {
		case "tag":
			f.TagFlip = x
		case "tagescape":
			f.TagEscape = x
		case "rcount":
			f.RCountFlip = x
		case "data":
			f.DataFlip = x
		case "row":
			f.RowFail = x
		case "bus":
			f.BusError = x
		default:
			return Faults{}, fmt.Errorf("config: unknown fault domain %q (want tag, tagescape, rcount, data, row or bus)", k)
		}
	}
	if err := f.Validate(); err != nil {
		return Faults{}, err
	}
	return f, nil
}
