package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a gzipped pprof profile.proto the attribution
// needs: each sample's stack as function names, leaf first with inlined
// frames expanded, and its CPU time in nanoseconds. The decoder is
// in-tree so the benchmark module stays dependency-free.
type profile struct {
	stacks [][]string
	nanos  []int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	pbProfileSampleType = 1
	pbProfileSample     = 2
	pbProfileLocation   = 4
	pbProfileFunction   = 5
	pbProfileStrings    = 6

	pbSampleLocation = 1
	pbSampleValue    = 2

	pbLocationID   = 1
	pbLocationLine = 4
	pbLineFunction = 1

	pbFunctionID   = 1
	pbFunctionName = 2

	pbValueTypeUnit = 2
)

var errTruncated = errors.New("profile: truncated protobuf")

// pbWalk calls fn for each field of one protobuf message. v carries the
// value of varint and fixed fields; b the bytes of length-delimited ones.
func pbWalk(buf []byte, fn func(field int, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := pbVarint(buf)
		if n == 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(buf)
			if n == 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(buf[i])
			}
			buf = buf[8:]
		case 2:
			l, n := pbVarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v = uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbVarint decodes one varint, returning its length (0 if malformed).
func pbVarint(buf []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(buf) && i < 10; i++ {
		v |= uint64(buf[i]&0x7f) << (7 * i)
		if buf[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbRepeated appends a repeated varint field's values, packed or not.
func pbRepeated(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile as written by
// runtime/pprof.StartCPUProfile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		units     []uint64 // sample_type unit string indexes
		funcName  = map[uint64]uint64{}
		locFuncs  = map[uint64][]uint64{}
		sampleLoc [][]uint64
		sampleVal [][]uint64
	)
	err = pbWalk(raw, func(field, wire int, v uint64, b []byte) error {
		switch field {
		case pbProfileSampleType:
			return pbWalk(b, func(f, _ int, v uint64, _ []byte) error {
				if f == pbValueTypeUnit {
					units = append(units, v)
				}
				return nil
			})
		case pbProfileSample:
			var locs, vals []uint64
			err := pbWalk(b, func(f, w int, v uint64, b []byte) error {
				var err error
				switch f {
				case pbSampleLocation:
					locs, err = pbRepeated(locs, w, v, b)
				case pbSampleValue:
					vals, err = pbRepeated(vals, w, v, b)
				}
				return err
			})
			sampleLoc = append(sampleLoc, locs)
			sampleVal = append(sampleVal, vals)
			return err
		case pbProfileLocation:
			var id uint64
			var fns []uint64
			err := pbWalk(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case pbLocationID:
					id = v
				case pbLocationLine:
					return pbWalk(b, func(f, _ int, v uint64, _ []byte) error {
						if f == pbLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case pbProfileFunction:
			var id, name uint64
			err := pbWalk(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case pbFunctionID:
					id = v
				case pbFunctionName:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case pbProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	col := -1
	for i, u := range units {
		if str(u) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no nanoseconds sample type (not a CPU profile?)")
	}
	p := &profile{}
	for i, locs := range sampleLoc {
		if col >= len(sampleVal[i]) {
			return nil, errors.New("profile: sample without a CPU value")
		}
		var stack []string
		for _, l := range locs {
			// A location's lines run from the innermost inlined
			// function out to the caller it was inlined into.
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcName[f]))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, int64(sampleVal[i][col]))
	}
	return p, nil
}

// attribution is a profile folded into the per-layer partition.
type attribution struct {
	samples int
	total   float64            // seconds across all samples
	self    map[string]float64 // hostLayers entry → seconds
	cum     map[string]float64 // cumEntries metric → seconds
}

// gcAllocPrefixes name the runtime's garbage collector and allocator.
// A sample with any of these anywhere in its stack is GC or allocation
// cost, whoever triggered it.
var gcAllocPrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.greyobject", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)",
	"runtime.(*gcControllerState)", "runtime.(*sweepLocked)", "runtime.(*mspan)",
	"runtime.(*pageAlloc)", "runtime.(*scavengerState)",
}

// schedPrefixes name the runtime's channel, park and scheduler paths:
// kernel coroutine handoffs (unbuffered channels) and worker-pool
// wakeups.
var schedPrefixes = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.closechan",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
	"runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.goexit0",
	"runtime.gosched", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.mPark", "runtime.notesleep", "runtime.notewakeup",
	"runtime.semacquire", "runtime.semrelease", "runtime.newproc",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// simLayer returns the layer of a shrimp/internal/<pkg> frame, if pkg is
// one of the partition's layers.
func simLayer(fn string) (string, bool) {
	const prefix = "shrimp/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range hostLayers {
		if l == pkg {
			return l, true
		}
	}
	return "", false
}

// classify assigns one stack (leaf first) to exactly one layer: GC or
// allocation anywhere in the stack wins; then a runtime leaf under a
// channel/park/scheduler frame is scheduling; then the deepest frame of
// a simulator layer; everything else (helpers such as addr or machine
// count with their caller's layer) is other.
func classify(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcAllocPrefixes) {
			return "gc_alloc"
		}
	}
	if len(stack) > 0 && isRuntime(stack[0]) {
		for _, fn := range stack {
			if hasAnyPrefix(fn, schedPrefixes) {
				return "sched"
			}
		}
	}
	for _, fn := range stack {
		if l, ok := simLayer(fn); ok {
			return l
		}
	}
	return "other"
}

// attribute folds a profile into self time per layer and cumulative
// time under each exported entry point.
func attribute(p *profile) attribution {
	a := attribution{samples: len(p.stacks), self: map[string]float64{}, cum: map[string]float64{}}
	for _, l := range hostLayers {
		a.self[l] = 0
	}
	for _, c := range cumEntries {
		a.cum[c.metric] = 0
	}
	for i, stack := range p.stacks {
		s := float64(p.nanos[i]) / 1e9
		a.total += s
		a.self[classify(stack)] += s
		for _, c := range cumEntries {
			if stackHas(stack, c.funcs) {
				a.cum[c.metric] += s
			}
		}
	}
	return a
}

func stackHas(stack, funcs []string) bool {
	for _, fn := range stack {
		for _, f := range funcs {
			if fn == f {
				return true
			}
		}
	}
	return false
}

// add accumulates another attribution (one per profiled trial).
func (a *attribution) add(b attribution) {
	if a.self == nil {
		a.self, a.cum = map[string]float64{}, map[string]float64{}
	}
	a.samples += b.samples
	a.total += b.total
	for k, v := range b.self {
		a.self[k] += v
	}
	for k, v := range b.cum {
		a.cum[k] += v
	}
}
