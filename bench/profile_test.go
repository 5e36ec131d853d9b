package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func pbUvarint(v uint64) []byte {
	var b []byte
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(field int, v uint64) []byte {
	return append(pbUvarint(uint64(field)<<3), pbUvarint(v)...)
}

func pbBytes(field int, b []byte) []byte {
	out := append(pbUvarint(uint64(field)<<3|2), pbUvarint(uint64(len(b)))...)
	return append(out, b...)
}

func pbPacked(field int, vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = append(b, pbUvarint(v)...)
	}
	return pbBytes(field, b)
}

// synthProfile encodes a gzipped CPU profile whose samples have the
// given stacks (leaf first; a frame group of several names is one
// location with inlined lines) and CPU nanoseconds. Every other sample
// lists its locations unpacked, as older writers do.
func synthProfile(t *testing.T, stacks [][][]string, nanos []int64) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIdx[s] = uint64(len(strs) - 1)
		return strIdx[s]
	}
	var msg []byte
	msg = append(msg, pbBytes(pbProfileSampleType, append(pbUint(1, 1), pbUint(2, 2)...))...)
	msg = append(msg, pbBytes(pbProfileSampleType, append(pbUint(1, 3), pbUint(2, 4)...))...)
	funcID := map[string]uint64{}
	var locID uint64
	for i, stack := range stacks {
		var locs []uint64
		for _, group := range stack {
			locID++
			loc := pbUint(pbLocationID, locID)
			for _, name := range group {
				id, ok := funcID[name]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[name] = id
					fn := append(pbUint(pbFunctionID, id), pbUint(pbFunctionName, intern(name))...)
					msg = append(msg, pbBytes(pbProfileFunction, fn)...)
				}
				loc = append(loc, pbBytes(pbLocationLine, pbUint(pbLineFunction, id))...)
			}
			msg = append(msg, pbBytes(pbProfileLocation, loc)...)
			locs = append(locs, locID)
		}
		var sample []byte
		if i%2 == 0 {
			sample = pbPacked(pbSampleLocation, locs...)
		} else {
			for _, l := range locs {
				sample = append(sample, pbUint(pbSampleLocation, l)...)
			}
		}
		sample = append(sample, pbPacked(pbSampleValue, 1, uint64(nanos[i]))...)
		msg = append(msg, pbBytes(pbProfileSample, sample)...)
	}
	for _, s := range strs {
		msg = append(msg, pbBytes(pbProfileStrings, []byte(s))...)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func frames(names ...string) [][]string {
	out := make([][]string, len(names))
	for i, n := range names {
		out[i] = []string{n}
	}
	return out
}

func TestAttributeSynthetic(t *testing.T) {
	cases := []struct {
		stack [][]string
		layer string
	}{
		{frames("runtime.memmove", "runtime.mallocgc", "shrimp/internal/nic.(*Interface).launch"), "gc_alloc"},
		{frames("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "gc_alloc"},
		{frames("runtime.futex", "runtime.chanrecv", "shrimp/internal/kernel.(*Proc).block"), "sched"},
		{frames("runtime.memmove", "shrimp/internal/nic.(*Interface).deliverData"), "nic"},
		{frames("shrimp/internal/addr.VPN", "shrimp/internal/mmu.(*MMU).Translate"), "mmu"},
		{[][]string{{"shrimp/internal/core.(*Controller).Load", "shrimp/internal/kernel.(*Proc).Load"}}, "core"},
		{frames("shrimp/internal/interconnect.(*Backplane).mergeMail",
			"shrimp/internal/interconnect.(*Backplane).Flush", "shrimp/internal/cluster.(*Cluster).Step"), "interconnect"},
		{frames("main.runPair", "runtime.goexit"), "other"},
		{nil, "other"},
	}
	var stacks [][][]string
	var nanos []int64
	for i, c := range cases {
		stacks = append(stacks, c.stack)
		nanos = append(nanos, int64(i+1)*10_000_000)
	}
	p, err := parseProfile(synthProfile(t, stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) != len(cases) {
		t.Fatalf("%d samples decoded, want %d", len(p.stacks), len(cases))
	}
	want := map[string]float64{}
	var total float64
	for i, c := range cases {
		if got := classify(p.stacks[i]); got != c.layer {
			t.Errorf("sample %d %v: layer %s, want %s", i, p.stacks[i], got, c.layer)
		}
		want[c.layer] += float64(nanos[i]) / 1e9
		total += float64(nanos[i]) / 1e9
	}
	a := attribute(p)
	var sum float64
	for _, l := range hostLayers {
		sum += a.self[l]
		if math.Abs(a.self[l]-want[l]) > 1e-12 {
			t.Errorf("layer %s: %v s, want %v", l, a.self[l], want[l])
		}
	}
	if a.samples != len(cases) || math.Abs(a.total-total) > 1e-12 || math.Abs(sum-total) > 1e-12 {
		t.Errorf("samples %d total %v layer sum %v, want %d and %v", a.samples, a.total, sum, len(cases), total)
	}
	if a.cum["host.cum.cluster.Step_s"] != 0.07 || a.cum["host.cum.interconnect.Flush_s"] != 0.07 {
		t.Errorf("cumulative entry points: %v", a.cum)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("accepted a non-gzip profile")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x05, 0x01}) // a field claiming 5 bytes, holding 1
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("accepted a truncated profile")
	}
}

// TestAttributeRealProfile profiles a second of pair-4k trials and checks
// the partition on a real runtime/pprof profile.
func TestAttributeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if _, err := runPair(1, 200, 1, nil); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(p)
	if a.samples == 0 {
		t.Fatal("no samples in a second of CPU work")
	}
	var sum, sim float64
	for _, l := range hostLayers {
		sum += a.self[l]
		if l != "gc_alloc" && l != "sched" && l != "other" {
			sim += a.self[l]
		}
	}
	if math.Abs(sum-a.total) > 1e-9*a.total {
		t.Errorf("layer sum %v != profiled %v", sum, a.total)
	}
	if sim == 0 || a.cum["host.cum.cluster.Step_s"] == 0 {
		t.Errorf("no time in simulator layers: %v %v", a.self, a.cum)
	}
}
