package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	sampleTypes []string // sample value names, e.g. "cpu", "alloc_objects"
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]string   // function id -> name
}

type sample struct {
	locations []uint64 // innermost first
	values    []int64
}

// value returns the index of the named sample value, or -1.
func (p *profile) value(name string) int {
	for i, t := range p.sampleTypes {
		if t == name {
			return i
		}
	}
	return -1
}

// stack returns a sample's function names, innermost first, with
// inlined calls expanded.
func (p *profile) stack(s sample) []string {
	var out []string
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			out = append(out, p.functions[fn])
		}
	}
	return out
}

// parseProfile decodes a gzipped (or raw) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var typeIdx []int64
	funcName := map[uint64]int64{}
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample: {location_id = 1, value = 2}
			var s sample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return repeated(v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id = 1, line = 4: Line{function_id = 1}}
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: {id = 1, name = 2}
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, i := range funcName {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.functions[id] = s
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated message")

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0: // varint
			if v, n = uvarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2: // length-delimited
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated integer field given either packed
// (body non-nil) or as one varint.
func repeated(v uint64, body []byte, add func(uint64)) error {
	if body == nil {
		add(v)
		return nil
	}
	for len(body) > 0 {
		x, n := uvarint(body)
		if n == 0 {
			return errTruncated
		}
		add(x)
		body = body[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint; n is 0 on malformed input.
func uvarint(b []byte) (v uint64, n int) {
	for shift := uint(0); n < len(b) && shift < 64; shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
	return 0, 0
}

// layers are the repro/internal packages a sample can be charged to,
// named with dots for slashes.
var layers = []string{
	"sim", "netsim", "proto.eth", "proto.ip", "proto.tcp", "proto.http", "proto.wire",
	"module", "path", "kernel", "sched", "domain", "msg", "iobuf", "lib", "core",
	"mem", "fs", "obs", "policy", "fault", "workload", "escort",
}

// The buckets for samples no listed layer claims.
const (
	bucketGC    = "runtime.gc"    // background GC with no repro frame
	bucketSched = "runtime.sched" // scheduler with no repro frame
	bucketOther = "other"
)

const internalPrefix = "repro/internal/"

// attribute names the bucket a stack (innermost first) is charged to:
// the layer of its innermost repro/internal frame, so GC assist lands
// on the layer that allocated; without one, the runtime's GC or
// scheduler when its frames show it, and otherwise other. A frame in an
// internal package outside the layer list (the experiment harness, the
// scenario library) is charged to other.
func attribute(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		// Internal package paths hold no dots, so the first one ends it.
		pkg, _, _ := strings.Cut(rest, ".")
		layer := strings.ReplaceAll(pkg, "/", ".")
		for _, l := range layers {
			if l == layer {
				return l
			}
		}
		return bucketOther
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return bucketGC
		}
	}
	for _, fn := range stack {
		if isSchedFrame(fn) {
			return bucketSched
		}
	}
	return bucketOther
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.scanblock"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isSchedFrame(fn string) bool {
	for _, p := range []string{"runtime.schedule", "runtime.findRunnable", "runtime.mcall",
		"runtime.park_m", "runtime.goexit0", "runtime.mstart", "runtime.sysmon",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.goschedImpl"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// sumByBucket totals one sample value per attribution bucket.
func sumByBucket(p *profile, valueName string) map[string]int64 {
	out := map[string]int64{}
	i := p.value(valueName)
	if i < 0 {
		return out
	}
	for _, s := range p.samples {
		if i < len(s.values) {
			out[attribute(p.stack(s))] += s.values[i]
		}
	}
	return out
}

// buckets lists every attribution bucket, so the per-layer metrics
// cover every sample of both profiles.
func buckets() []string {
	return append(append([]string(nil), layers...), bucketOther, bucketGC, bucketSched)
}

// layerMetrics charges the process's CPU time (cpuSeconds, measured
// over the CPU profile) to buckets in proportion to their samples, and
// the allocation profile delta (after minus before) by its values; both
// per completed connection. Shares, not the profile's own sample
// weights, set the CPU: the kernel delivers profiling signals at most
// once per scheduler tick, so at 1 kHz asked a 250 Hz kernel samples at
// 250 Hz while the profile still weighs each sample as 1 ms.
func layerMetrics(cpu *profile, cpuSeconds float64, allocsBefore, allocsAfter *profile, conns uint64) map[string]float64 {
	if conns == 0 {
		conns = 1
	}
	per := float64(conns)
	samples := sumByBucket(cpu, "samples")
	var total int64
	for _, n := range samples {
		total += n
	}
	objs0, objs1 := sumByBucket(allocsBefore, "alloc_objects"), sumByBucket(allocsAfter, "alloc_objects")
	bytes0, bytes1 := sumByBucket(allocsBefore, "alloc_space"), sumByBucket(allocsAfter, "alloc_space")
	out := map[string]float64{}
	for _, b := range buckets() {
		out[b+".cpu_us_per_conn"] = 0
		if total > 0 {
			out[b+".cpu_us_per_conn"] = float64(samples[b]) / float64(total) * cpuSeconds * 1e6 / per
		}
		out[b+".allocs_per_conn"] = float64(objs1[b]-objs0[b]) / per
		out[b+".alloc_kb_per_conn"] = float64(bytes1[b]-bytes0[b]) / 1024 / per
	}
	return out
}
