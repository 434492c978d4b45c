package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/experiments"
	"cherisim/internal/golden"
	"cherisim/internal/metrics"
	"cherisim/internal/pmu"
	"cherisim/internal/replay"
	"cherisim/internal/report"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
	"cherisim/internal/topdown"
	"cherisim/internal/workloads"
)

// childResult is what one measured process reports to the parent, as the
// last line of its standard output.
type childResult struct {
	// SetupDone is the wall clock (Unix ns) once the process is ready to
	// simulate its first µop: the parent subtracts its spawn time to get
	// setup_s.
	SetupDone int64 `json:"setup_done_unix_ns"`
	// Values holds the host timings and counts the pass measured, by
	// metric name.
	Values map[string]float64 `json:"values"`
	// Sim is the simulated work of the measurement grid, summed over pairs.
	Sim simCounts `json:"sim"`
	// Digest is the SHA-256 of the campaign's rendered report.
	Digest string `json:"digest,omitempty"`
	// Parts splits the pass's host wall time, in seconds: by
	// "workload/abi" on the grids, by phase ("prefetch:<chunk>",
	// "render:<id>") on the campaign.
	Parts map[string]float64 `json:"parts"`
	// Cal holds each part's calibrated time (see partTimer), and Refs
	// the reference probe's times, in passes that calibrate.
	Cal  map[string]float64 `json:"cal,omitempty"`
	Refs []float64          `json:"refs,omitempty"`
	// Attempted counts the checked operations; Failures describes each
	// one that failed.
	Attempted int      `json:"attempted"`
	Failures  []string `json:"failures,omitempty"`
}

func (r *childResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// simCounts are the simulated work counts of a set of runs, by name.
// They repeat exactly for a given commit and must not move when only the
// simulator's host speed changes.
type simCounts map[string]uint64

var simEvents = []struct {
	name string
	ev   pmu.Event
}{
	{"l1d_access", pmu.L1D_CACHE},
	{"l1d_refill", pmu.L1D_CACHE_REFILL},
	{"l2d_refill", pmu.L2D_CACHE_REFILL},
	{"llc_miss_rd", pmu.LL_CACHE_MISS_RD},
	{"dtlb_walk", pmu.DTLB_WALK},
	{"itlb_walk", pmu.ITLB_WALK},
	{"br_mis_pred", pmu.BR_MIS_PRED_RETIRED},
	{"cap_mem_rd", pmu.CAP_MEM_ACCESS_RD},
	{"cap_mem_wr", pmu.CAP_MEM_ACCESS_WR},
}

// simNames lists every simCounts key.
func simNames() []string {
	out := []string{"uops", "heap_allocs"}
	for _, e := range simEvents {
		out = append(out, e.name)
	}
	return out
}

func (s simCounts) add(c *pmu.Counters, uops, heapAllocs uint64) {
	s["uops"] += uops
	s["heap_allocs"] += heapAllocs
	for _, e := range simEvents {
		s[e.name] += c.Get(e.ev)
	}
}

func (s simCounts) equal(o simCounts) bool {
	for _, n := range simNames() {
		if s[n] != o[n] {
			return false
		}
	}
	return true
}

// expectedSim sums the pinned per-ABI counts over abis.
func expectedSim(abis []abi.ABI) simCounts {
	out := simCounts{}
	for _, a := range abis {
		for n, v := range pinnedSim[a.String()] {
			out[n] += v
		}
	}
	return out
}

// childMain runs one measured pass in this (fresh) process and prints its
// childResult. The exit code is non-zero only when the pass could not run
// at all; correctness failures are reported in the result.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	mode := fs.String("mode", "", "cold, warm or grid")
	seed := fs.Int64("seed", 1, "execution-order seed")
	storeDir := fs.String("store", "", "result-store directory (cold, warm)")
	abiList := fs.String("abis", "", "comma-separated ABIs (grid)")
	goldenPath := fs.String("golden", "", "golden baseline file")
	traceDir := fs.String("trace-dir", "", "when set: profile the pass and write its CPU profile and Perfetto trace here")
	setupOnly := fs.Bool("setup-only", false, "exit once ready to simulate the first µop")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res := newChildResult()
	// The replay cache is process-global: a stream recorded earlier in this
	// process would turn this pass into a different program.
	if st := experiments.ReplayStats(); st != (replay.Stats{}) {
		fmt.Fprintf(os.Stderr, "hostbench: replay cache not empty at start: %+v\n", st)
		return 1
	}
	var err error
	var tr *tracer
	if *traceDir != "" {
		tr = &tracer{dir: *traceDir, hub: telemetry.New()}
	}
	// Untraced cold and grid passes calibrate their parts; warm passes
	// take milliseconds and only report resume_s.
	p := pass{res: res, seed: *seed, goldenPath: *goldenPath, setupOnly: *setupOnly, tr: tr,
		calibrate: tr == nil && *mode != "warm"}
	switch *mode {
	case "cold", "warm":
		err = p.campaign(*mode == "cold", *storeDir)
	case "grid":
		var abis []abi.ABI
		if abis, err = parseABIs(*abiList); err == nil {
			err = p.grid(abis)
		}
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err == nil && tr != nil && !*setupOnly {
		err = tr.finish(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

func newChildResult() *childResult {
	return &childResult{Values: map[string]float64{}, Sim: simCounts{}, Parts: map[string]float64{}, Cal: map[string]float64{}}
}

// pass is one measured pass of a child process.
type pass struct {
	res        *childResult
	seed       int64
	goldenPath string
	setupOnly  bool
	tr         *tracer
	calibrate  bool
}

// timer starts timing the pass's parts, with the reference probe when the
// pass calibrates. The probe is built after set-up, which it must not
// slow.
func (p *pass) timer() *partTimer {
	var probe *refProbe
	if p.calibrate {
		probe = newRefProbe()
	}
	return newPartTimer(p.res, probe)
}

func parseABIs(list string) ([]abi.ABI, error) {
	var out []abi.ABI
	for _, n := range strings.Split(list, ",") {
		a, err := abi.Parse(n)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// setUp ends a pass's set-up: it builds the machine the first pair runs on,
// as workloads.ExecuteConfig does before the pair's first µop, and stamps
// the time. A set-up-only process stops there; a measured pass goes on
// and builds its machines itself.
func setUp(res *childResult, first experiments.Pair, setupOnly bool) {
	if setupOnly {
		core.NewMachine(core.DefaultConfig(first.ABI))
	}
	res.SetupDone = time.Now().UnixNano()
}

// tracer is the traced run's instrumentation: a telemetry hub for spans
// and a CPU profile covering the measured pass.
type tracer struct {
	dir string
	hub *telemetry.Hub
	cpu *os.File
}

func (t *tracer) start() error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(t.dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	t.cpu = f
	return pprof.StartCPUProfile(f)
}

func (t *tracer) stop() {
	if t != nil {
		pprof.StopCPUProfile()
	}
}

// finish closes the CPU profile (the parent buckets it by layer), records
// the Go runtime's GC counts, derives the span metrics and writes the
// spans as a Perfetto trace.
func (t *tracer) finish(res *childResult) error {
	if err := t.cpu.Close(); err != nil {
		return err
	}
	rt := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(rt)
	if total := rt[1].Value.Float64(); total > 0 {
		res.Values["gc.cpu_frac"] = rt[0].Value.Float64() / total
	}
	res.Values["heap.alloc_mb"] = float64(rt[2].Value.Uint64()) / (1 << 20)

	spanMetrics(res.Values, t.hub.Spans.Snapshot())

	f, err := os.Create(filepath.Join(t.dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteTrace(f, t.hub.Spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMetrics derives the per-layer span metrics from the recorded spans:
// prefetch_s (the benchmark's span around the campaign's Prefetch),
// render_s.<experiment> (the session's "experiment:<id>" spans) and
// kernel_ns_per_uop.<workload>. Run spans are the session's own
// ("run:<workload>/<abi>") in the campaign and the benchmark's
// ("kernel:<workload>/<abi>") on the grids; both carry the workload and
// its µop count.
func spanMetrics(dst map[string]float64, spans []telemetry.SpanRecord) {
	type acc struct{ ns, uops float64 }
	kernels := map[string]*acc{}
	for _, sp := range spans {
		switch {
		case sp.Name == "prefetch":
			dst["prefetch_s"] += sp.DurUs / 1e6
		case strings.HasPrefix(sp.Name, "experiment:"):
			dst["render_s."+strings.TrimPrefix(sp.Name, "experiment:")] += sp.DurUs / 1e6
		case strings.HasPrefix(sp.Name, "run:"), strings.HasPrefix(sp.Name, "kernel:"):
			var w string
			var uops float64
			for _, a := range sp.Attrs {
				switch a.Key {
				case "workload":
					w, _ = a.Value.(string)
				case "uops":
					u, _ := a.Value.(uint64)
					uops = float64(u)
				}
			}
			if w == "" || uops == 0 {
				continue
			}
			k := kernels[w]
			if k == nil {
				k = &acc{}
				kernels[w] = k
			}
			k.ns += sp.DurUs * 1e3
			k.uops += uops
		}
	}
	for w, k := range kernels {
		dst["kernel_ns_per_uop."+w] = k.ns / k.uops
	}
}

// shuffled returns a seeded permutation of s: the seed changes only the
// order of execution, never what is executed.
func shuffled[T any](s []T, seed int64) []T {
	out := append([]T(nil), s...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// prefetchChunk is how many pairs the campaign prefetches per part, so
// that calibration probes the host every second or so.
const prefetchChunk = 5

// campaign renders the pinned experiments at scale 1 with Jobs=1 on a
// fresh Session over the store at dir: a cold pass simulates into the empty
// store, a warm pass must resume entirely from it. It prefetches the pairs
// in chunks, which with Jobs=1 runs them one at a time as a single
// Prefetch would.
func (p *pass) campaign(cold bool, dir string) error {
	res, tr := p.res, p.tr
	var exps []*experiments.Experiment
	for _, id := range campaignIDs {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		exps = append(exps, e)
	}
	store, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	s := experiments.NewSession(1)
	s.Jobs = 1
	s.Store = store
	var hub *telemetry.Hub
	if tr != nil {
		hub = tr.hub
		s.Telemetry = hub
	}
	pairs := shuffled(experiments.UnionPairs(exps), p.seed)
	setUp(res, pairs[0], p.setupOnly)
	if p.setupOnly {
		return nil
	}
	if err := tr.start(); err != nil {
		return err
	}
	t := p.timer()
	sp := hub.Start("prefetch")
	for i := 0; i < len(pairs); i += prefetchChunk {
		s.Prefetch(pairs[i:min(i+prefetchChunk, len(pairs))])
		t.done(fmt.Sprintf("prefetch:%02d", i/prefetchChunk))
	}
	sp.End()
	var out bytes.Buffer
	renderErrs := experiments.RenderSelected(s, &out, exps, func(e *experiments.Experiment, _ error) {
		t.done("render:" + e.ID)
	})
	tr.stop()
	s.FinishTelemetry()

	res.check(len(renderErrs) == 0, "%d of %d experiments failed to render: %v", len(renderErrs), len(exps), renderErrs)
	sum := sha256.Sum256(out.Bytes())
	res.Digest = hex.EncodeToString(sum[:])
	res.check(res.Digest == renderDigest, "rendered report digest %s, want %s (%d bytes)", res.Digest, renderDigest, out.Len())

	execs := s.Executions()
	st := s.StoreStats()
	if !cold {
		res.check(execs == 0, "warm pass executed %d runs, want 0", execs)
		res.check(st.Misses == 0, "warm pass had %d store misses, want 0", st.Misses)
		res.Values["store.hits"] = float64(st.Hits)
		return nil
	}
	res.Values["store.writes"] = float64(st.Writes)
	res.Values["store.misses"] = float64(st.Misses)
	rs := experiments.ReplayStats()
	res.Values["replay.bytes"] = float64(rs.Bytes)
	res.Values["replay.served_uops"] = float64(rs.FastpathUops)
	if hub != nil {
		m := hub.Metrics
		res.Values["runs"] = float64(m.Counter("runs_started").Value())
		res.Values["profile_runs"] = float64(m.Counter("profile_runs").Value())
		res.Values["singleflight_hits"] = float64(m.Counter("singleflight_hits").Value())
	}

	// The golden gate and the grid's work counts come from the session's
	// cached runs: both happen after the timed pass.
	base, err := golden.Load(p.goldenPath)
	if err != nil {
		return err
	}
	got := s.MetricSnapshot()
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range base.Entries {
		keys[k] = true
	}
	goldenGate(res, base, got, keys)
	for _, p := range experiments.CampaignGrid() {
		d := s.Run(p.Workload, p.ABI)
		res.Sim.add(&d.Counters, d.Uops, d.Heap.Allocs)
	}
	res.check(res.Sim.equal(expectedSim(abi.All())), "campaign grid sim counts %v, want %v", res.Sim, expectedSim(abi.All()))
	return nil
}

// goldenGate checks each pair named in keys, once: its metric vector in
// got must be in the baseline and match it under the baseline's own
// tolerance.
func goldenGate(res *childResult, base *golden.Baseline, got map[string]map[string]float64, keys map[string]bool) {
	for key := range keys {
		want, ok := base.Entries[key]
		if !ok {
			res.check(false, "golden: %s: measured but absent from the baseline", key)
			continue
		}
		one := &golden.Baseline{Default: base.Default, Metrics: base.Metrics, Entries: map[string]map[string]float64{key: want}}
		drifts := one.Diff(map[string]map[string]float64{key: got[key]})
		res.check(len(drifts) == 0, "golden: %v", drifts)
	}
}

// grid runs the pinned workloads under abis, in seeded order, each on a
// fresh machine through workloads.ExecuteConfig — the call behind the
// cherisim.Run facade — and derives each pair's report the way the facade
// does.
func (p *pass) grid(abis []abi.ABI) error {
	res, tr := p.res, p.tr
	pairs, err := gridPairs(gridWorkloads, abis, p.seed)
	if err != nil {
		return err
	}
	var hub *telemetry.Hub
	if tr != nil {
		hub = tr.hub
	}
	setUp(res, pairs[0], p.setupOnly)
	if p.setupOnly {
		return nil
	}
	if err := tr.start(); err != nil {
		return err
	}
	t := p.timer()
	vectors := executeGrid(res, pairs, hub, t)
	tr.stop()
	res.Values["runs"] = float64(len(pairs))

	base, err := golden.Load(p.goldenPath)
	if err != nil {
		return err
	}
	keys := map[string]bool{}
	for k := range vectors {
		keys[k] = true
	}
	goldenGate(res, base, vectors, keys)
	res.check(res.Sim.equal(expectedSim(abis)), "grid sim counts %v, want %v", res.Sim, expectedSim(abis))
	return nil
}

// gridPairs crosses the named workloads with abis, in seeded order.
func gridPairs(names []string, abis []abi.ABI, seed int64) ([]experiments.Pair, error) {
	var pairs []experiments.Pair
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		for _, a := range abis {
			pairs = append(pairs, experiments.Pair{Workload: w, ABI: a})
		}
	}
	return shuffled(pairs, seed), nil
}

// executeGrid runs every pair on a fresh machine, recording its host time
// as a part on t, a span carrying its µop count, and its simulated work.
// It returns each pair's metric vector, keyed "workload/abi".
func executeGrid(res *childResult, pairs []experiments.Pair, hub *telemetry.Hub, t *partTimer) map[string]map[string]float64 {
	vectors := map[string]map[string]float64{}
	for _, p := range pairs {
		key := p.Workload.Name + "/" + p.ABI.String()
		sp := hub.Start("kernel:" + key)
		m, err := workloads.ExecuteConfig(p.Workload, core.DefaultConfig(p.ABI), 1)
		mt := metrics.Compute(&m.C)
		td := topdown.Analyze(&m.C)
		t.done(key)
		sp.Attr("workload", p.Workload.Name).Attr("abi", p.ABI.String()).Attr("uops", m.Uops()).End()
		res.check(err == nil, "%s: %v", key, err)
		res.Sim.add(&m.C, m.Uops(), m.Heap.Stats().Allocs)
		vectors[key] = report.MetricVector(&mt, &td)
	}
	return vectors
}
