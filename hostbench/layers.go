package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// layers are the host-CPU buckets of the traced run, named after the
// simulator's modules. Every profile sample lands in exactly one of them,
// so their shares sum to 1.
var layers = []string{
	"experiments", "replay", "resultstore",
	"core", "core.attribute",
	"cache", "tlb", "mem", "alloc", "branch", "cap",
	"soc", "faultinject", "workloads",
	"analysis", "telemetry",
	"runtime.map", "runtime.gc", "other",
}

// frame is one (possibly inlined) function of a sample's call stack.
type frame struct {
	Name string // fully qualified, e.g. cherisim/internal/cache.(*Cache).Access
	File string
}

// stack is one profile sample: its frames leaf first, and its weight.
type stack struct {
	Frames []frame
	Count  int64
}

// layerOf buckets one sample. It walks the stack from the leaf up and
// stops at the first frame that names a bucket: a Go map or GC/allocation
// frame, or any function of the simulator. Standard-library and other
// runtime helpers (memmove, sort, encoding/json, ...) are thus charged to
// the simulator layer that called them; a stack with no simulator frame
// at all (scheduler, idle runtime work) is "other".
func layerOf(frames []frame) string {
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return "other"
}

// frameLayer names the bucket one frame decides, or "" when the frame is
// a helper the walk passes through.
func frameLayer(f frame) string {
	switch {
	case hasAnyPrefix(f.Name, mapFrames):
		return "runtime.map"
	case hasAnyPrefix(f.Name, gcFrames):
		return "runtime.gc"
	}
	const mod = "cherisim/"
	if !strings.HasPrefix(f.Name, mod) {
		return ""
	}
	pkg := pkgOf(f.Name)
	switch pkg = strings.TrimPrefix(pkg, "cherisim/internal/"); pkg {
	case "core":
		switch {
		case strings.HasSuffix(f.File, "/core/profile.go"):
			return "core.attribute"
		case strings.HasSuffix(f.File, "/core/replay.go"):
			return "replay"
		}
		return "core"
	case "experiments":
		if strings.HasSuffix(f.File, "/experiments/replay.go") {
			return "replay"
		}
		return "experiments"
	case "replay", "resultstore", "cache", "tlb", "mem", "alloc", "branch", "cap",
		"soc", "faultinject", "workloads", "telemetry":
		return pkg
	case "pmu", "topdown", "metrics", "report":
		return "analysis"
	}
	return "other"
}

// mapFrames are the Go map implementation's entry points and internals
// (runtime/map*.go before Go 1.24, internal/runtime/maps from 1.24) and the
// key hashes they call.
var mapFrames = []string{
	"runtime.map", "internal/runtime/maps.", "runtime.evacuate", "runtime.growWork",
	"runtime.memhash", "runtime.strhash", "runtime.aeshash", "runtime.f32hash",
	"runtime.f64hash", "runtime.interhash", "runtime.nilinterhash",
}

// gcFrames are the allocator's entry points and the collector's workers.
var gcFrames = []string{
	"runtime.gc", "runtime.GC", "runtime._GC", "runtime.mallocgc", "runtime.newobject",
	"runtime.newarray", "runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.(*mheap)", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*gcWork)",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// pkgOf returns the import path of a qualified Go function name: the text
// up to the first dot after the last slash.
func pkgOf(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// bucketSamples sums sample counts per layer; every layer is present.
func bucketSamples(stacks []stack) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range stacks {
		out[layerOf(s.Frames)] += s.Count
	}
	return out
}

// samplePeriod is runtime/pprof's CPU sampling interval (100 Hz).
const samplePeriod = 10 * time.Millisecond

// profileLayers buckets the samples of a CPU profile by layer. The
// profile is read with `go tool pprof -traces -lines`, which prints every
// distinct stack with its sampled CPU time.
func profileLayers(ctx context.Context, path string) (map[string]int64, error) {
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-lines", "-symbolize=none", path)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	stacks, err := parseTraces(out.String())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bucketSamples(stacks), nil
}

// parseTraces reads the output of `go tool pprof -traces -lines`: a header,
// then one block per stack, each opened by a separator line (and the last
// one closed by one). A block's
// first line carries its sampled time before the leaf frame; every frame
// line reads "function file:line", with " (inline)" after inlined frames.
func parseTraces(text string) ([]stack, error) {
	var out []stack
	in := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, stack{})
			in = true
			continue
		}
		f := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if !in || len(f) == 0 {
			continue
		}
		s := &out[len(out)-1]
		if len(s.Frames) == 0 {
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof traces: bad stack line %q", line)
			}
			s.Count = int64((d + samplePeriod/2) / samplePeriod)
			f = f[1:]
		}
		fr := frame{Name: f[0]}
		if len(f) > 1 {
			fr.File, _, _ = strings.Cut(f[1], ":")
		}
		s.Frames = append(s.Frames, fr)
	}
	// The last separator closes the output rather than opening a stack.
	if n := len(out); n > 0 && len(out[n-1].Frames) == 0 {
		out = out[:n-1]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return out, nil
}
