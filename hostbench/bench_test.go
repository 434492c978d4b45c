package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"cherisim/internal/abi"
	"cherisim/internal/experiments"
)

// metricName is the grammar every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"wall_s", "cpu.runtime.map", "kernel_ns_per_uop.510.parest_r", "render_s.ablation-caches", "9lives"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", ".wall", "-x", "wall s", "a/b", "µops", string(bytes.Repeat([]byte("a"), 65))} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric %q breaks the grammar", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q defined twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// metrics this command reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	type entry struct {
		Name, Unit, Better string
	}
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g != (entry{w.name, w.unit, w.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command reports %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}

func TestLayerBucketing(t *testing.T) {
	fr := func(name, file string) frame { return frame{Name: name, File: file} }
	cases := []struct {
		frames []frame
		want   string
	}{
		{[]frame{fr("cherisim/internal/cache.(*Cache).Access", "/src/internal/cache/cache.go")}, "cache"},
		{[]frame{fr("cherisim/internal/core.(*Machine).attribute", "/src/internal/core/profile.go"),
			fr("cherisim/internal/core.(*Machine).uop", "/src/internal/core/exec.go")}, "core.attribute"},
		{[]frame{fr("cherisim/internal/core.(*Machine).replayBlock", "/src/internal/core/replay.go")}, "replay"},
		{[]frame{fr("cherisim/internal/core.(*Machine).uop", "/src/internal/core/exec.go")}, "core"},
		{[]frame{fr("cherisim/internal/experiments.recordRun", "/src/internal/experiments/replay.go")}, "replay"},
		{[]frame{fr("cherisim/internal/experiments.(*Session).Run", "/src/internal/experiments/session.go")}, "experiments"},
		// Map probes are charged to runtime.map even when a layer calls them.
		{[]frame{fr("internal/runtime/maps.(*Map).getWithKeySmall", ""), fr("runtime.mapaccess2_fast64", ""),
			fr("cherisim/internal/alloc.(*Heap).Owner", "")}, "runtime.map"},
		{[]frame{fr("runtime.mapaccess1_fast64", ""), fr("cherisim/internal/tlb.(*TLB).Lookup", "")}, "runtime.map"},
		{[]frame{fr("runtime.nextFreeFast", ""), fr("runtime.mallocgc", ""), fr("cherisim/internal/mem.(*Memory).pageFor", "")}, "runtime.gc"},
		{[]frame{fr("runtime.scanobject", ""), fr("runtime.gcDrain", ""), fr("runtime.gcBgMarkWorker", "")}, "runtime.gc"},
		// Other helpers are charged to the simulator layer that called them.
		{[]frame{fr("runtime.memmove", ""), fr("encoding/json.(*encodeState).marshal", ""),
			fr("cherisim/internal/resultstore.(*Store).Save", "")}, "resultstore"},
		{[]frame{fr("runtime.futex", ""), fr("runtime.findRunnable", ""), fr("runtime.schedule", "")}, "other"},
		{[]frame{fr("cherisim/internal/isa.Decode", "")}, "other"},
		{[]frame{fr("cherisim/internal/pmu.(*Counters).Add", "")}, "analysis"},
		{[]frame{fr("cherisim/internal/topdown.Analyze", "")}, "analysis"},
		{[]frame{fr("cherisim/internal/workloads.omnetpp.func1", "")}, "workloads"},
		{nil, "other"},
	}
	var stacks []stack
	for i, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("case %d: layerOf = %q, want %q", i, got, c.want)
		}
		stacks = append(stacks, stack{Frames: c.frames, Count: int64(i + 1)})
	}
	counts := bucketSamples(stacks)
	if len(counts) != len(layers) {
		t.Fatalf("bucketSamples returned %d layers, want %d", len(counts), len(layers))
	}
	vals := map[string]float64{}
	addShares(vals, counts)
	var sum float64
	for _, l := range layers {
		sum += vals["cpu."+l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu.* shares sum to %v, want 1", sum)
	}
}

// TestParseTraces reads stacks out of `go tool pprof -traces -lines` text.
func TestParseTraces(t *testing.T) {
	const text = `File: hostbench
Type: cpu
Duration: 1s, Total samples = 40ms (4.00%)
-----------+-------------------------------------------------------
      30ms   cherisim/internal/core.(*Machine).attribute /src/internal/core/profile.go:88 (inline)
             cherisim/internal/core.(*Machine).uop /src/internal/core/exec.go:258
-----------+-------------------------------------------------------
      10ms   runtime.mapaccess2_fast64 /usr/local/go/src/runtime/map_fast64.go:12
             cherisim/internal/tlb.(*TLB).Lookup /src/internal/tlb/tlb.go:40
-----------+-------------------------------------------------------
`
	stacks, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{Count: 3, Frames: []frame{
			{"cherisim/internal/core.(*Machine).attribute", "/src/internal/core/profile.go"},
			{"cherisim/internal/core.(*Machine).uop", "/src/internal/core/exec.go"}}},
		{Count: 1, Frames: []frame{
			{"runtime.mapaccess2_fast64", "/usr/local/go/src/runtime/map_fast64.go"},
			{"cherisim/internal/tlb.(*TLB).Lookup", "/src/internal/tlb/tlb.go"}}},
	}
	if !reflect.DeepEqual(stacks, want) {
		t.Errorf("parseTraces =\n%+v\nwant\n%+v", stacks, want)
	}
	if got := bucketSamples(stacks); got["core.attribute"] != 3 || got["runtime.map"] != 1 {
		t.Errorf("bucketSamples = %v", got)
	}
}

// TestSimCountsSeedInvariant checks on a two-kernel grid that the seed
// changes only the order of execution, never the simulated work.
func TestSimCountsSeedInvariant(t *testing.T) {
	names := []string{"519.lbm_r", "557.xz_r"}
	abis := []abi.ABI{abi.Hybrid, abi.Purecap}
	run := func(seed int64) ([]experiments.Pair, *childResult) {
		pairs, err := gridPairs(names, abis, seed)
		if err != nil {
			t.Fatal(err)
		}
		res := newChildResult()
		executeGrid(res, pairs, nil, newPartTimer(res, nil))
		if len(res.Failures) > 0 {
			t.Fatalf("seed %d: %v", seed, res.Failures)
		}
		return pairs, res
	}
	p1, r1 := run(1)
	p2, r2 := run(2)
	if reflect.DeepEqual(p1, p2) {
		t.Fatal("seeds 1 and 2 give the same order; the test needs two orders")
	}
	if !r1.Sim.equal(r2.Sim) || r1.Sim["uops"] == 0 {
		t.Errorf("sim counts differ across seeds:\n%v\n%v", r1.Sim, r2.Sim)
	}
}

// TestPartTimer checks that a calibrating timer gives every part a
// calibrated time, one probe per part, and sums the raw parts into wall_s.
func TestPartTimer(t *testing.T) {
	res := newChildResult()
	pt := newPartTimer(res, newRefProbe())
	for _, k := range []string{"a", "b", "c"} {
		time.Sleep(time.Millisecond)
		pt.done(k)
	}
	var sum float64
	for k, d := range res.Parts {
		sum += d
		if d <= 0 || res.Cal[k] <= 0 {
			t.Errorf("part %s: raw %v, calibrated %v", k, d, res.Cal[k])
		}
	}
	if len(res.Cal) != 3 || len(res.Refs) != 3 {
		t.Errorf("%d calibrated parts and %d probes, want 3 and 3", len(res.Cal), len(res.Refs))
	}
	if math.Abs(res.Values["wall_s"]-sum) > 1e-12 {
		t.Errorf("wall_s %v, want the parts' sum %v", res.Values["wall_s"], sum)
	}
}
