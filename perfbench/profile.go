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

// This file reads the gzipped profile.proto that runtime/pprof writes
// and charges each CPU sample to a layer. Only the fields attribution
// needs are decoded: samples (location ids and values), locations
// (their line entries' function ids), functions (name indexes), the
// string table, and the sample types.

// layerOf names the layer a fully qualified Go function belongs to:
// the package under hira/internal/ ("hira/internal/sched.(*Controller).Tick"
// is "sched"), or "" for anything else.
func layerOf(fn string) string {
	const prefix = "hira/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attributeProfile parses a gzipped CPU profile and returns CPU
// nanoseconds per layer. Each sample goes to the innermost
// hira/internal/<pkg> frame on its stack, so allocation, GC assist and
// memclr time lands on the layer that caused it. A sample with no such
// frame goes to "runtime" when its stack is all runtime frames (GC
// background workers, the scheduler) and to "other" otherwise (the
// benchmark's own code, net/http plumbing).
func attributeProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	valueIdx := -1
	for i, st := range p.sampleTypes {
		if p.str(st[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample lacks the nanoseconds value")
		}
		out[p.layerOfStack(s.locs)] += s.values[valueIdx]
	}
	return out, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes [][2]int64 // (type, unit) string indexes
	samples     []profSample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]int64    // function id -> name string index
	strings     []string
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func (p *profile) layerOfStack(locs []uint64) string {
	allRuntime := true
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			name := p.str(p.funcNames[f])
			if layer := layerOf(name); layer != "" {
				return layer
			}
			if !strings.HasPrefix(name, "runtime.") {
				allRuntime = false
			}
		}
	}
	if allRuntime {
		return "runtime"
	}
	return "other"
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var st [2]int64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case 2: // sample
			var s profSample
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends one repeated-varint field occurrence, packed
// (wire type 2) or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's
// number, wire type and value: the varint for wire type 0, the bytes
// for wire type 2. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length-delimited field")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
