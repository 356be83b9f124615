package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// profile is the part of a pprof CPU profile that per-package attribution
// needs. It is decoded by hand from the protobuf wire format
// (github.com/google/pprof/proto/profile.proto) because the module takes
// no dependencies.
type profile struct {
	sampleTypes []string // "type/unit" of each sample value, e.g. "cpu/nanoseconds"
	samples     []sample
	// locations maps a location id to its function names, innermost
	// (inlined callee) first.
	locations map[uint64][]string
}

// sample is one stack with its values.
type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// readProfile loads a profile file written by runtime/pprof.
func readProfile(path string) (*profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// parseProfile decodes a gzipped or raw pprof protobuf.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	// Every string is an index into the string table, which may come last,
	// so indices are collected first and resolved at the end.
	var (
		strs      []string
		types     [][2]int64
		samples   []sample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
	)
	err := eachField(data, func(num int, f field) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(f.bytes, func(n int, g field) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(g.varint)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s sample
			err := eachField(f.bytes, func(n int, g field) error {
				switch n {
				case 1:
					return g.uints(func(v uint64) { s.locs = append(s.locs, v) })
				case 2:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(n int, g field) error {
				switch n {
				case 1:
					id = g.varint
				case 4: // line: function_id is field 1
					return eachField(g.bytes, func(n int, h field) error {
						if n == 1 {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(f.bytes, func(n int, g field) error {
				switch n {
				case 1:
					id = g.varint
				case 2:
					name = int64(g.varint)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	p := &profile{locations: make(map[uint64][]string, len(locFuncs))}
	for _, t := range types {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, typ+"/"+unit)
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, fn := range fns {
			idx, ok := funcNames[fn]
			if !ok {
				return nil, fmt.Errorf("pprof: location %d names unknown function %d", id, fn)
			}
			if names[i], err = str(idx); err != nil {
				return nil, err
			}
		}
		p.locations[id] = names
	}
	for _, s := range samples {
		if len(s.values) != len(p.sampleTypes) {
			return nil, fmt.Errorf("pprof: sample has %d values for %d sample types", len(s.values), len(p.sampleTypes))
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// field is one decoded protobuf field: a varint, or the payload of a
// length-delimited field. Fixed-width fields are skipped (profile.proto
// uses none that attribution reads).
type field struct {
	wire   int
	varint uint64
	bytes  []byte
}

// uints yields a repeated integer field, which an encoder may write either
// packed (one length-delimited run) or as one varint per element.
func (f field) uints(yield func(uint64)) error {
	if f.wire == 0 {
		yield(f.varint)
		return nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message.
func eachField(b []byte, fn func(num int, f field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		f := field{wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n = uvarint(b); n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("pprof: bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(int(key>>3), f); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a base-128 varint; n <= 0 signals malformed input.
func uvarint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// cpuLayers are the repro/internal packages that get a cpu_share of their
// own; samples in any other repro/internal package go to "other".
var cpuLayers = []string{
	"sim", "mem", "iommu", "iova", "shadow", "core", "dmaapi", "nic",
	"netstack", "kv", "ssd", "bench", "cycles",
}

// cpuBuckets is every attribution bucket, in report order.
var cpuBuckets = append(append([]string{}, cpuLayers...), "other", "gc", "runtime")

const internalPrefix = "repro/internal/"

// bucketOf charges a sample to its innermost repro/internal package. A
// sample with no such frame is a GC worker's ("gc") or else "runtime".
func (p *profile) bucketOf(s sample) string {
	gc := false
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
				pkg, _, _ := strings.Cut(rest, ".")
				for _, l := range cpuLayers {
					if pkg == l {
						return l
					}
				}
				return "other"
			}
			switch fn {
			case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
				gc = true
			}
		}
	}
	if gc {
		return "gc"
	}
	return "runtime"
}

// cpuNanos returns the CPU-time value of a sample (the "cpu" sample type,
// else the last one).
func (p *profile) cpuNanos(s sample) int64 {
	for i, t := range p.sampleTypes {
		if strings.HasPrefix(t, "cpu/") {
			return s.values[i]
		}
	}
	return s.values[len(s.values)-1]
}

// attribute adds each sample's CPU time to its bucket in acc.
func (p *profile) attribute(acc map[string]int64) {
	for _, s := range p.samples {
		acc[p.bucketOf(s)] += p.cpuNanos(s)
	}
}

// cpuShares turns accumulated bucket times into percentages named
// "<bucket>.cpu_share", one per bucket.
func cpuShares(acc map[string]int64) map[string]float64 {
	var total int64
	for _, v := range acc {
		total += v
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		share := 0.0
		if total > 0 {
			share = 100 * float64(acc[b]) / float64(total)
		}
		out[b+".cpu_share"] = share
	}
	return out
}
