package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"

	"hira/internal/sim"
)

var update = flag.Bool("update", false, "re-record testdata/fig9.pprof.gz and its expected attribution")

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hira/internal/sched.(*Controller).Tick":  "sched",
		"hira/internal/sim.NewSystem.func1":       "sim",
		"hira/internal/engine.(*Engine[...]).Run": "engine",
		"hira/internal/telemetry/sub.X":           "telemetry",
		"runtime.mallocgc":                        "",
		"main.run":                                "",
		"net/http.(*conn).serve":                  "",
		"hira/internalx.F":                        "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pb) packed(num int, vs []uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(num, q.b)
}

// synthProfile encodes a CPU profile whose samples have the given
// stacks (leaf first; each location a list of function names, inlined
// callee first) and nanosecond values.
func synthProfile(t *testing.T, stacks [][][]string, ns []int64) []byte {
	var p pb
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var st pb
	st.varint(1, str("samples"))
	st.varint(2, str("count"))
	p.bytes(1, st.b)
	st = pb{}
	st.varint(1, str("cpu"))
	st.varint(2, str("nanoseconds"))
	p.bytes(1, st.b)
	funcs := map[string]uint64{}
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var s pb
		var locs []uint64
		for _, loc := range stack {
			var l pb
			l.varint(1, nextLoc)
			for _, fn := range loc {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pb
					f.varint(1, id)
					f.varint(2, str(fn))
					p.bytes(5, f.b)
				}
				var line pb
				line.varint(1, id)
				l.bytes(4, line.b)
			}
			p.bytes(4, l.b)
			locs = append(locs, nextLoc)
			nextLoc++
		}
		if i%2 == 0 {
			s.packed(1, locs) // runtime/pprof packs long fields...
		} else {
			for _, l := range locs { // ...and writes short ones unpacked
				s.varint(1, l)
			}
		}
		s.packed(2, []uint64{1, uint64(ns[i])})
		p.bytes(2, s.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeSynthetic(t *testing.T) {
	stacks := [][][]string{
		// Allocation inside the LLC's constructor: the runtime frames
		// are charged to the innermost hira layer, cache.
		{{"runtime.memclrNoHeapPointers"}, {"runtime.mallocgc"}, {"hira/internal/cache.New"}, {"hira/internal/sim.NewSystem"}, {"main.run"}},
		// An inlined core call inside a sched frame: the inlined callee
		// is listed first in its location and wins.
		{{"hira/internal/core.(*HiRAMC).due", "hira/internal/sched.(*Controller).Tick"}, {"hira/internal/sim.(*System).Tick"}},
		// A GC background worker has no hira frame: runtime.
		{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}},
		// Benchmark or HTTP plumbing with no hira frame: other.
		{{"syscall.Syscall"}, {"net/http.(*persistConn).readLoop"}},
		{{"hira/internal/sched.(*Controller).Tick"}},
	}
	ns := []int64{10, 20, 40, 80, 160}
	got, err := attributeProfile(synthProfile(t, stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"cache": 10, "core": 20, "runtime": 40, "other": 80, "sched": 160}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attribution = %v, want %v", got, want)
	}
}

// TestAttributeRecordedFixture checks the reader against a real profile
// recorded by runtime/pprof over a short simulation. The expected
// attribution was cross-checked against `go tool pprof -traces` on the
// same file when it was recorded.
func TestAttributeRecordedFixture(t *testing.T) {
	prof := filepath.Join("testdata", "fig9.pprof.gz")
	wantPath := filepath.Join("testdata", "fig9.attribution.json")
	if *update {
		recordFixture(t, prof, wantPath)
	}
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	got, err := attributeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]int64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attribution = %v, want %v", got, want)
	}
	if got["sched"] == 0 {
		t.Error("a busy simulation's profile charged nothing to sched")
	}
}

func recordFixture(t *testing.T, profPath, wantPath string) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = sim.HiRAPeriodicPolicy(2)
	mix := bandMixes(1, cfg.Cores, new(rng))[0]
	sys, err := sim.NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(context.Background(), 400000); err != nil {
		t.Fatal(err)
	}
	pprof.StopCPUProfile()
	layers, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(layers, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(profPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(profPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wantPath, append(want, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
