package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// deadline bounds a whole benchmark run, children included.
const deadline = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "campaign, grid-hybrid or grid-purecap")
	seed := flag.Int64("seed", 1, "execution-order seed")
	seconds := flag.Int("seconds", 25, "measurement budget per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for result stores, profiles and traces")
	goldenPath := flag.String("golden", "testdata/golden-scale1.json", "golden baseline the outputs are checked against")
	flag.Parse()

	rep, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, *goldenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadABIs maps each grid workload to its ABIs.
var workloadABIs = map[string]string{
	"grid-hybrid":  "hybrid",
	"grid-purecap": "purecap",
}

// runner spawns the measured child processes of one benchmark run.
type runner struct {
	ctx    context.Context
	exe    string
	dir    string
	golden string
	seed   int64
	budget time.Duration
	// setup collects each set-up-only child's calibrated time from
	// process start to ready to simulate the first µop.
	setup []float64
	// processes counts the children run; attempted and failures accumulate
	// every correctness check, the children's and the runner's own.
	processes int
	attempted int
	failures  []string
}

func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// measured is one child's result with what the parent observed of it.
type measured struct {
	*childResult
	rssMB float64
	// setup is the time from spawning the process to its SetupDone.
	setup float64
}

// child runs one measured pass in a fresh process and waits for it.
func (r *runner) child(args ...string) (*measured, error) {
	args = append([]string{"child", "-seed", strconv.FormatInt(r.seed, 10), "-golden", r.golden}, args...)
	cmd := exec.CommandContext(r.ctx, r.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args[1:], err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	res := &childResult{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("child %v: result: %w", args[1:], err)
	}
	r.processes++
	r.attempted += res.Attempted
	r.failures = append(r.failures, res.Failures...)
	m := &measured{childResult: res, setup: float64(res.SetupDone-start.UnixNano()) / 1e9}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		m.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return m, nil
}

// minPasses is the fewest untraced passes a run measures, however long
// they take.
const minPasses = 2

// passes runs measured passes, each in a fresh process with the arguments
// args(n) gives the n-th, until the budget is spent, and at least min of
// them.
func (r *runner) passes(min int, args func(n int) []string) ([]*measured, error) {
	start := time.Now()
	var out []*measured
	var last time.Duration
	for n := 0; n < min || time.Since(start)+last/2 < r.budget; n++ {
		t0 := time.Now()
		m, err := r.child(args(n)...)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		out = append(out, m)
	}
	return out, nil
}

func run(workload string, seed int64, budget time.Duration, traced bool, out, goldenPath string) (*result, error) {
	if _, err := os.Stat(goldenPath); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d", workload, seed)
	if traced {
		name += "-traced"
	}
	dir, err := filepath.Abs(filepath.Join(out, "hostbench", name))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer removeStores(dir)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	r := &runner{ctx: ctx, exe: exe, dir: dir, golden: goldenPath, seed: seed, budget: budget}

	storeDir := func(kind string, n int) string {
		return filepath.Join(dir, fmt.Sprintf("%s-store-%d", kind, n))
	}
	var mode []string
	switch abis, grid := workloadABIs[workload]; {
	case workload == "campaign":
		mode = []string{"-mode", "cold", "-store"}
	case grid:
		mode = []string{"-mode", "grid", "-abis", abis}
	default:
		return nil, fmt.Errorf("unknown workload %q (want campaign, grid-hybrid or grid-purecap)", workload)
	}
	// passArgs gives the n-th pass's arguments; traced passes write their
	// profile and trace under dir.
	passArgs := func(kind string) func(n int) []string {
		return func(n int) []string {
			a := append([]string(nil), mode...)
			if workload == "campaign" {
				// Each cold pass gets its own fresh store.
				a = append(a, storeDir(kind, n))
			}
			if kind == "traced" {
				a = append(a, "-trace-dir", filepath.Join(dir, fmt.Sprintf("traced-%d", n)))
			}
			return a
		}
	}
	if err := r.measureSetup(passArgs("setup")(0)); err != nil {
		return nil, err
	}
	untraced, err := r.passes(minPasses, passArgs("untraced"))
	if err != nil {
		return nil, err
	}
	var resume []float64
	var warm *measured
	if workload == "campaign" {
		// Warm passes resume from the first cold pass's store.
		cold := untraced[0]
		for i := 0; i < warmRuns; i++ {
			if warm, err = r.child("-mode", "warm", "-store", storeDir("untraced", 0)); err != nil {
				return nil, err
			}
			resume = append(resume, warm.Values["wall_s"])
			r.check(warm.Digest == cold.Digest, "warm pass %d rendered different bytes from the cold pass", i)
		}
	}
	var tpasses []*measured
	if traced {
		if tpasses, err = r.passes(1, passArgs("traced")); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "hostbench: %s: %d untraced and %d traced passes, %d processes, %d of them set-up only\n",
		name, len(untraced), len(tpasses), r.processes, len(r.setup))
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "hostbench: FAIL:", f)
	}
	rep := &result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    len(r.failures),
		Metrics:   map[string]metric{},
	}
	var rss, refs []float64
	for _, m := range untraced {
		rss = append(rss, m.rssMB)
		refs = append(refs, m.Refs...)
	}
	uops := float64(untraced[len(untraced)-1].Sim["uops"])
	cal := sumOfPartMinima(untraced, func(m *measured) map[string]float64 { return m.Cal })
	vals := map[string]float64{
		"cal_wall_s":     cal,
		"cal_ns_per_uop": cal * 1e9 / uops,
		"peak_rss_mb":    median(rss),
		"setup_s":        median(r.setup),
	}
	names := endToEnd
	if traced {
		names = perLayer()
		if vals, err = r.layerValues(untraced, tpasses, warm, resume); err != nil {
			return nil, err
		}
		wall := sumOfPartMinima(untraced, func(m *measured) map[string]float64 { return m.Parts })
		vals["wall_s"] = wall
		vals["host_ns_per_uop"] = wall * 1e9 / uops
		vals["host_speed"] = refNominal / median(refs)
		vals["fail_rate"] = float64(rep.Failed) / float64(rep.Attempted)
		if err := writeLayerTable(filepath.Join(dir, "layers.txt"), vals); err != nil {
			return nil, err
		}
	}
	for _, m := range names {
		rep.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return rep, nil
}

// layerValues derives the per-layer metrics: the traced passes' counts and
// span metrics (medians over the passes), their profiles bucketed by
// layer, and the tracing overhead against the untraced passes.
func (r *runner) layerValues(untraced, traced []*measured, warm *measured, resume []float64) (map[string]float64, error) {
	per := map[string][]float64{}
	counts := map[string]int64{}
	var twall, wall []float64
	for n, m := range traced {
		for k, v := range m.Values {
			per[k] = append(per[k], v)
		}
		twall = append(twall, m.Values["wall_s"])
		c, err := profileLayers(r.ctx, filepath.Join(r.dir, fmt.Sprintf("traced-%d", n), "cpu.pprof"))
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			counts[k] += v
		}
	}
	for _, m := range untraced {
		wall = append(wall, m.Values["wall_s"])
	}
	vals := map[string]float64{}
	for k, v := range per {
		vals[k] = median(v)
	}
	vals["passes"] = float64(len(untraced))
	vals["trace_overhead_frac"] = median(twall)/median(wall) - 1
	if warm != nil {
		vals["store.hits"] = warm.Values["store.hits"]
		vals["resume_s"] = median(resume)
	}
	addSim(vals, traced[len(traced)-1].Sim)
	addShares(vals, counts)
	return vals, nil
}

// sumOfPartMinima is a pass's host time taken part by part: the sum over
// the parts (a grid's pairs, a campaign's phases) of each part's shortest
// time across the passes. times picks the part times, raw or calibrated.
// Contention from other tenants only ever adds time, and on a shared host
// it comes and goes within a run; calibration removes the slowdowns the
// reference probe sees, and the minimum discounts the rest. Over five
// grid-hybrid runs on a shared 2-vCPU host in a phase the probe did not
// track, the spread (IQR/median) of the summed calibrated medians was
// about 0.16 and of the summed calibrated minima about 0.06.
func sumOfPartMinima(passes []*measured, times func(*measured) map[string]float64) float64 {
	parts := map[string][]float64{}
	for _, m := range passes {
		for k, v := range times(m) {
			parts[k] = append(parts[k], v)
		}
	}
	var sum float64
	for _, v := range parts {
		m := v[0]
		for _, x := range v[1:] {
			m = math.Min(m, x)
		}
		sum += m
	}
	return sum
}

// removeStores deletes the campaign's result stores once a run is done;
// profiles, traces and the layer table stay.
func removeStores(dir string) {
	stores, _ := filepath.Glob(filepath.Join(dir, "*-store-*"))
	for _, s := range stores {
		os.RemoveAll(s)
	}
}

// warmRuns is how many warm resume passes follow the cold passes;
// resume_s is their median.
const warmRuns = 9

// setupRuns is how many set-up-only processes a run starts: setup_s is
// their median. The measured passes are left out, since a warm pass sets
// up over a full store and a cold one over an empty store.
const setupRuns = 31

// measureSetup starts setupRuns processes that set up as the measured
// passes do and exit once ready to simulate the first µop. It probes the
// host just before each spawn and calibrates that process's set-up time
// by the probe, as a pass calibrates its parts.
func (r *runner) measureSetup(args []string) error {
	probe := newRefProbe()
	for i := 0; i < setupRuns; i++ {
		ref := probe.time()
		m, err := r.child(append(args, "-setup-only")...)
		if err != nil {
			return err
		}
		r.setup = append(r.setup, m.setup*refNominal/ref)
	}
	return nil
}

func addSim(vals map[string]float64, sim simCounts) {
	for k, v := range sim {
		vals["sim."+k] = float64(v)
	}
}

// addShares converts per-layer sample counts into cpu.<layer> shares of
// their total, plus the total itself.
func addShares(vals map[string]float64, counts map[string]int64) {
	var total int64
	for _, v := range counts {
		total += v
	}
	vals["cpu.samples"] = float64(total)
	for _, l := range layers {
		if total > 0 {
			vals["cpu."+l] = float64(counts[l]) / float64(total)
		}
	}
}

// writeLayerTable writes the traced run's cpu.* shares, largest first.
func writeLayerTable(path string, vals map[string]float64) error {
	ls := append([]string(nil), layers...)
	sort.SliceStable(ls, func(i, j int) bool { return vals["cpu."+ls[i]] > vals["cpu."+ls[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s  (of %.0f CPU samples)\n", "layer", "share", vals["cpu.samples"])
	for _, l := range ls {
		fmt.Fprintf(&b, "%-16s %7.2f%%\n", l, 100*vals["cpu."+l])
	}
	os.Stderr.WriteString(b.String())
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
