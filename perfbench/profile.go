package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's modules that host time is attributed to, in
// report order.  "runtime" is the Go runtime (GC, allocation,
// scheduling); "other" collects every remaining package, including the
// profiler itself and redcache helpers outside these modules.
var layers = []string{"engine", "dram", "cache", "cpu", "hbm", "sim", "experiments", "workloads", "runtime", "other"}

// layerOf maps a profile function name (the symbol pprof records, such
// as "redcache/internal/dram.(*txnQueue).at" or
// "redcache/internal/cpu.NewComplex.NewCore.func3") to its layer.  The
// package is the text up to the first '.' after the last '/', so
// closures, methods and generic instantiations all resolve to the
// package that defines them.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(fn, '['); i >= 0 {
		pkg = fn[:i] // generic type arguments may contain '/' and '.'
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "redcache/internal/"):
		mod := strings.TrimPrefix(pkg, "redcache/internal/")
		for _, l := range layers {
			if l == mod {
				return l
			}
		}
	}
	return "other"
}

// selfSeconds decodes a gzipped pprof CPU profile (as runtime/pprof
// writes it) and sums each sample's CPU time into the layer of its leaf
// frame.  The leaf frame is the first line of the first location: for
// an inlined call that line belongs to the inlined callee.
func selfSeconds(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, st := range p.sampleTypes {
		if p.str(st.typ) == "cpu" && p.str(st.unit) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		layer := "other"
		if len(s.locs) > 0 {
			if fn, ok := p.leafFunc(s.locs[0]); ok {
				layer = layerOf(fn)
			}
		}
		out[layer] += float64(s.values[cpu]) / 1e9
	}
	return out, nil
}

// profile is the subset of the pprof protobuf (profile.proto) that
// attribution needs.
type profile struct {
	sampleTypes []valueType
	samples     []sample
	locFunc     map[uint64]uint64 // location id → leaf line's function id
	funcName    map[uint64]int64  // function id → string table index
	strings     []string
}

type valueType struct{ typ, unit int64 }

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func (p *profile) leafFunc(loc uint64) (string, bool) {
	fid, ok := p.locFunc[loc]
	if !ok {
		return "", false
	}
	name, ok := p.funcName[fid]
	if !ok {
		return "", false
	}
	return p.str(name), true
}

// Field numbers from profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	valueTypeType = 1
	valueTypeUnit = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(f field) error {
		switch f.num {
		case profSampleType:
			var vt valueType
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case valueTypeType:
					vt.typ = int64(g.varint)
				case valueTypeUnit:
					vt.unit = int64(g.varint)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case profSample:
			var s sample
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case sampleLocationID:
					return g.varints(func(v uint64) { s.locs = append(s.locs, v) })
				case sampleValue:
					return g.varints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id, fn uint64
			haveLine := false
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case locationID:
					id = g.varint
				case locationLine:
					if haveLine {
						return nil // later lines are the callers an inlined leaf was inlined into
					}
					haveLine = true
					return eachField(g.data, func(h field) error {
						if h.num == lineFunction {
							fn = h.varint
						}
						return nil
					})
				}
				return nil
			})
			if haveLine {
				p.locFunc[id] = fn
			}
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case functionID:
					id = g.varint
				case functionName:
					name = int64(g.varint)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// field is one decoded protobuf field: varint holds wire type 0 values,
// data holds wire type 2 (length-delimited) payloads.
type field struct {
	num    int
	wire   int
	varint uint64
	data   []byte
}

// varints yields the values of a repeated varint field, which an
// encoder may write either packed (one length-delimited field) or as
// separate varint fields.
func (f field) varints(yield func(uint64)) error {
	if f.wire == 0 {
		yield(f.varint)
		return nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf")

func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
