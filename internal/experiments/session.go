// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): each experiment is a named runner that executes the
// needed (workload, ABI) combinations on the simulated Morello platform,
// derives the paper's metrics, and renders the same rows/series the paper
// reports, annotated with the paper's values where it states them.
package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cherisim/internal/abi"
	"cherisim/internal/alloc"
	"cherisim/internal/cache"
	"cherisim/internal/check"
	"cherisim/internal/core"
	"cherisim/internal/faultinject"
	"cherisim/internal/metrics"
	"cherisim/internal/pmu"
	"cherisim/internal/replay"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
	"cherisim/internal/topdown"
	"cherisim/internal/workloads"
)

// RunData is the retained outcome of one workload execution.
type RunData struct {
	Counters pmu.Counters
	Metrics  metrics.Metrics
	Topdown  topdown.Breakdown
	Heap     alloc.Stats
	Err      error
	// Attempts counts executions of this pair: 1 for an undisturbed run,
	// more when transient injected faults were retried. Counters and
	// Injected describe the final attempt.
	Attempts int
	// Uops is the number of classified µops the final attempt executed
	// (covers the prefix up to the fault for failed runs).
	Uops uint64
	// Injected lists the fault injections performed during the final
	// attempt (nil when the session runs without chaos).
	Injected []faultinject.Event
	// Witness is the corruption witness of an attack-corpus run: the
	// workload's Canary hook re-derives the seeded checksum over the
	// canary region the kernel planted (nil for workloads without one).
	// See internal/attacks.
	Witness *workloads.CanaryReport
	// hasMachine records whether a machine produced Counters/Heap/Uops (a
	// panic before machine construction leaves them zero without one); the
	// result store needs the distinction to round-trip failed runs.
	hasMachine bool
}

// Pair names one (workload, ABI) measurement of the campaign grid.
type Pair struct {
	Workload *workloads.Workload
	ABI      abi.ABI
}

// inflight is one singleflight cell: the first caller of a key owns the
// execution and closes done; every later caller blocks on done and shares
// the same RunData.
type inflight struct {
	done chan struct{}
	data *RunData
}

// runKey identifies one (workload, ABI) singleflight cell. A composite
// struct key instead of a concatenated string keeps the cached-run hot
// path allocation-free (the guard BenchmarkSessionTelemetryOff pins this).
type runKey struct {
	workload string
	abi      abi.ABI
}

// Session caches workload runs so experiments that share measurements
// (e.g. Figure 1 and Table 3) execute each (workload, ABI) pair once, the
// way the paper reuses one measurement campaign across its analyses.
//
// The session is safe for concurrent use: callers of the same
// (workload, ABI) key are deduplicated onto a single in-flight execution
// (singleflight), while distinct keys execute concurrently, bounded by a
// worker pool of min(GOMAXPROCS, Jobs) simulated machines. Each execution
// builds a private core.Machine, so parallel runs are deterministic and
// their cached results are independent of scheduling order.
type Session struct {
	// Scale multiplies every workload's iteration counts.
	Scale int
	// Configure, when set, adjusts the machine configuration before a run
	// (used by ablation experiments).
	Configure func(*core.Config)
	// Jobs caps the number of concurrently executing workloads. Values
	// <= 0 default to GOMAXPROCS; the effective pool size is
	// min(GOMAXPROCS, Jobs). Set it before the first Run/Prefetch call.
	Jobs int

	// Chaos, when non-nil, attaches a deterministic fault injector to
	// every run. Each (workload, ABI, attempt) cell derives its own seed
	// from Chaos.Seed, so campaign results are order-independent and
	// reproducible. See internal/faultinject.
	Chaos *faultinject.Config
	// ChaosSeed is the campaign seed the resilience experiment sweeps
	// with; it applies even when Chaos is nil (0 means 1).
	ChaosSeed uint64
	// DeadlineUops, when > 0, bounds every run's executed µops: the
	// watchdog aborts a run crossing the budget with a *core.DeadlineError
	// instead of letting a runaway workload stall the campaign.
	DeadlineUops uint64
	// Retries bounds the deterministic re-execution of runs that failed
	// with a transient injected fault (core.IsTransient). Fatal capability
	// violations, deadlines and panics are never retried.
	Retries int

	// Attacks, when non-empty, restricts the security experiment to the
	// named attack-corpus entries (see internal/attacks). Other
	// experiments ignore it.
	Attacks []string

	// Topologies, when non-empty, restricts the scale experiment to the
	// named fabric topologies ("mesh", "ring"). Other experiments ignore
	// it.
	Topologies []string
	// CoreCounts, when non-empty, overrides the scale experiment's
	// core-count sweep. Other experiments ignore it.
	CoreCounts []int

	// Check, when true, runs every measurement under the lockstep
	// reference-model harness: each machine's caches and TLBs get a naive
	// shadow model diffed after every operation, and every bounds
	// compression is re-derived in big-integer arithmetic (see
	// internal/check). Divergences never abort a run — they are collected
	// and reported via CheckReport, and counted on the check_divergences
	// telemetry counter. Set it before the first Run/Prefetch call.
	Check bool

	// Store, when non-nil, is the persistent result cache: Run consults it
	// before simulating (unless Check is set — checked runs must execute)
	// and persists every finished result, so a warm campaign resumes from
	// disk. The nil store is inert. Set it before the first Run/Prefetch
	// call. See internal/resultstore.
	Store *resultstore.Store

	// Telemetry, when non-nil, receives spans, metrics and logs for every
	// supervised run: a campaign-root span with per-worker run/attempt
	// spans under it, injected faults as instant events, and the engine's
	// counter/gauge/histogram set (see internal/telemetry). Nil (the
	// default) keeps the engine inert: the hot path costs one pointer test,
	// allocates nothing, and rendered output is byte-identical. Set it
	// before the first Run/Prefetch call.
	Telemetry *telemetry.Hub

	mu       sync.Mutex
	flight   map[runKey]*inflight
	pflight  map[runKey]*profFlight // attribution-profile singleflight (see hotspots.go)
	sem      chan int               // worker-ID pool: receiving acquires a slot + identity
	obs      *runObserver
	checkCol *check.Collector
	execs    *atomic.Uint64 // machine executions, not store hits; shared with derived sub-sessions
}

// NewSession creates a measurement session at the given workload scale.
func NewSession(scale int) *Session {
	if scale < 1 {
		scale = 1
	}
	return &Session{Scale: scale, flight: make(map[runKey]*inflight), execs: new(atomic.Uint64)}
}

// pool returns the worker-pool semaphore, building it on first use. The
// channel is pre-filled with worker IDs, so acquiring a slot also names
// the worker — the identity telemetry renders as one trace track per
// worker. Callers must hold s.mu.
func (s *Session) pool() chan int {
	if s.sem == nil {
		n := s.Jobs
		if g := runtime.GOMAXPROCS(0); n <= 0 || n > g {
			n = g
		}
		s.sem = NewFleet(n)
	}
	if obs := s.observer(); obs != nil {
		obs.poolWorkers.Set(int64(cap(s.sem)))
	}
	return s.sem
}

// NewFleet builds a worker-ID pool of n slots (1 when n < 1): a channel
// pre-filled with worker identities, the same structure pool() builds
// privately. A fleet handed to several sessions via SharePool bounds their
// combined concurrency — the campaign service runs every submission on its
// own Session but one shared fleet, so tenants compete for simulation
// workers instead of multiplying them.
func NewFleet(n int) chan int {
	if n < 1 {
		n = 1
	}
	p := make(chan int, n)
	for i := 0; i < n; i++ {
		p <- i
	}
	return p
}

// SharePool attaches a pre-built worker fleet (NewFleet) to the session in
// place of its private pool. Must be called before the first
// Run/Prefetch/ProfileRun; a nil fleet is ignored.
func (s *Session) SharePool(p chan int) {
	if p == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sem = p
}

// Executions returns how many machine executions the session and its
// derived sub-sessions (see derive) have performed — store-served runs do
// not count. A warm campaign over a populated store reports 0.
func (s *Session) Executions() uint64 { return s.execs.Load() }

// observer returns the session's telemetry observer, building it on first
// use; nil when telemetry is disabled. Callers must hold s.mu.
func (s *Session) observer() *runObserver {
	if s.obs == nil && s.Telemetry.Enabled() {
		s.obs = newRunObserver(s.Telemetry)
	}
	return s.obs
}

// campaignObserver exposes the session's observer to campaign-level
// instrumentation (RenderAll's experiment spans); nil when telemetry is
// off.
func (s *Session) campaignObserver() *runObserver {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observer()
}

// derive returns a sub-session for an experiment that re-measures the
// grid under its own machine configuration or supervision (the ablations,
// the attack corpus, the resilience sweep); the caller sets those. The
// sub-session shares the parent's scale, Jobs, store, telemetry observer,
// lockstep collector, worker pool and execution counter, so its runs nest
// under the parent's campaign-root span, are shadowed when the parent
// checks, draw from the same worker fleet and count in Executions.
func (s *Session) derive() *Session {
	sub := NewSession(s.Scale)
	sub.Jobs = s.Jobs
	sub.Store = s.Store
	sub.Telemetry = s.Telemetry
	sub.Check = s.Check
	sub.checkCol = s.checkCollector()
	sub.execs = s.execs
	s.mu.Lock()
	sub.obs = s.observer()
	sub.sem = s.pool()
	s.mu.Unlock()
	return sub
}

// checkCollector returns the session's lockstep collector, building it on
// first use; nil when checking is off.
func (s *Session) checkCollector() *check.Collector {
	if !s.Check {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.checkCol == nil {
		s.checkCol = check.NewCollector(s.Telemetry)
		s.checkCol.EnableBounds()
	}
	return s.checkCol
}

// MachineSetup returns the per-machine hook the session installs on its own
// runs, for experiments that build machines outside the session (the soc
// co-runs); nil when lockstep checking is off.
func (s *Session) MachineSetup() func(*core.Machine) {
	col := s.checkCollector()
	if col == nil {
		return nil
	}
	return func(m *core.Machine) { col.AttachMachine(m) }
}

// sliceSetup returns the per-slice hook the session installs on topology
// co-runs — the lockstep checker shadows every LLC slice (safe under the
// parallel weave: each slice's checker is only driven by the goroutine
// merging that slice, and the collector is concurrency-safe). Nil when
// checking is off.
func (s *Session) sliceSetup() func(int, *cache.Cache) {
	col := s.checkCollector()
	if col == nil {
		return nil
	}
	return func(slice int, c *cache.Cache) { check.AttachCache(col, c) }
}

// CheckReport summarizes the lockstep checker's results so far. The zero
// Report when checking is off.
func (s *Session) CheckReport() check.Report {
	s.mu.Lock()
	col := s.checkCol
	s.mu.Unlock()
	if col == nil {
		return check.Report{}
	}
	return col.Report()
}

// CloseCheck detaches the session's collector from the process-global
// bounds observer. Call it when the campaign is done and the report has
// been read; idempotent and a no-op when checking is off.
func (s *Session) CloseCheck() {
	s.mu.Lock()
	col := s.checkCol
	s.mu.Unlock()
	if col != nil {
		col.Close()
	}
}

// FinishTelemetry ends the session's campaign-root span so every span is
// published to the collector before a trace export. Idempotent; a no-op
// without telemetry.
func (s *Session) FinishTelemetry() {
	s.mu.Lock()
	obs := s.obs
	s.mu.Unlock()
	obs.finish()
}

// Run returns the (cached) outcome of executing workload w under ABI a.
// Concurrent calls for the same pair share one execution; calls for
// different pairs proceed in parallel up to the worker-pool bound.
func (s *Session) Run(w *workloads.Workload, a abi.ABI) *RunData {
	key := runKey{workload: w.Name, abi: a}
	s.mu.Lock()
	if s.flight == nil {
		s.flight = make(map[runKey]*inflight)
	}
	if c, ok := s.flight[key]; ok {
		obs := s.obs
		s.mu.Unlock()
		obs.sfHit()
		<-c.done
		return c.data
	}
	c := &inflight{done: make(chan struct{})}
	s.flight[key] = c
	sem := s.pool()
	obs := s.obs // built by pool() when telemetry is on
	s.mu.Unlock()

	// Persistent-store lookup, before a worker slot is taken: a served
	// entry costs one file read, no simulation and no pool contention.
	var sk resultstore.Key
	if s.Store != nil {
		sk = s.runStoreKey(w, a)
		if d, ok := s.loadRun(sk, obs); ok {
			c.data = d
			close(c.done)
			return c.data
		}
	}

	worker := <-sem // acquire a worker-pool slot (and its identity)
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	span := obs.runStart(w, a, s.Scale, worker)
	c.data = s.execute(w, a, obs, span)
	if obs != nil {
		obs.runEnd(span, c.data, time.Since(t0))
	}
	s.saveRun(sk, c.data, obs)
	sem <- worker
	close(c.done)
	return c.data
}

// execute performs one supervised workload run: up to 1+Retries attempts
// on fresh machines, retrying only transient injected faults. The retry
// schedule is deterministic — attempt k of a pair always replays the same
// fault schedule, independent of pool scheduling (and of whether telemetry
// observes it).
func (s *Session) execute(w *workloads.Workload, a abi.ABI, obs *runObserver, run *telemetry.Span) *RunData {
	for attempt := 0; ; attempt++ {
		att := obs.attemptStart(run, attempt)
		d := s.executeOnce(w, a, attempt, obs, att)
		d.Attempts = attempt + 1
		if d.Err == nil || attempt >= s.Retries || !core.IsTransient(d.Err) {
			obs.attemptEnd(att, d, false)
			return d
		}
		obs.attemptEnd(att, d, true)
	}
}

// executeOnce performs one uncached workload run on a fresh machine,
// installing the session's supervision and lockstep hooks (runSetup).
func (s *Session) executeOnce(w *workloads.Workload, a abi.ABI, attempt int, obs *runObserver, att *telemetry.Span) *RunData {
	s.execs.Add(1)
	inj, setup := s.runSetup(w, a, attempt, obs, att)
	m, err := workloads.ExecuteHooked(w, s.effectiveConfig(a), s.Scale, func(m *core.Machine) {
		// Nothing in the harness reads per-function profiles; skipping
		// attribution changes no counter or metric (see DisableProfile).
		m.DisableProfile()
		if setup != nil {
			setup(m)
		}
	})
	var injected []faultinject.Event
	if inj != nil {
		injected = inj.Events()
	}
	d := runDataOf(m, err, injected)
	if w.Canary != nil && m != nil {
		wr := w.Canary(m)
		d.Witness = &wr
	}
	return d
}

// runSetup builds one attempt's machine hook: the lockstep checker when the
// session checks, then — under chaos or a watchdog deadline — the quantum
// hook that drives the watchdog and the deterministic fault injector, which
// it also returns. Shared by the measurement path (executeOnce) and the
// profiled path (profileOnce), so both observe the same fault schedule for
// the same (workload, ABI, attempt) cell. The hook is nil when there is
// nothing to install.
func (s *Session) runSetup(w *workloads.Workload, a abi.ABI, attempt int, obs *runObserver, att *telemetry.Span) (*faultinject.Injector, func(*core.Machine)) {
	col := s.checkCollector()
	if s.Chaos == nil && s.DeadlineUops == 0 {
		if col == nil {
			return nil, nil
		}
		return nil, col.AttachMachine
	}
	var inj *faultinject.Injector
	if s.Chaos != nil {
		c := *s.Chaos
		c.Seed = faultinject.RunSeed(c.Seed, w.Name, a.String(), attempt)
		c.Observe = obs.injectObserver(att, c.Seed)
		inj = faultinject.New(c)
	}
	deadline := s.DeadlineUops
	setup := func(m *core.Machine) {
		if col != nil {
			col.AttachMachine(m)
		}
		quantum := uint64(faultinject.DefaultQuantum)
		if inj != nil {
			quantum = inj.Quantum()
		}
		var executed uint64
		m.SetQuantum(quantum, func() {
			executed += quantum
			if deadline > 0 && executed >= deadline {
				panic(&core.DeadlineError{Uops: executed, Budget: deadline})
			}
			if inj != nil {
				inj.Step(m)
			}
		})
	}
	return inj, setup
}

// runDataOf assembles the retained outcome of one execution.
func runDataOf(m *core.Machine, err error, injected []faultinject.Event) *RunData {
	d := &RunData{Err: err, Injected: injected}
	if m != nil {
		d.Counters = m.C
		d.Metrics = metrics.Compute(&m.C)
		d.Topdown = topdown.Analyze(&m.C)
		d.Heap = m.Heap.Stats()
		d.Uops = m.Uops()
		d.hasMachine = true
	}
	return d
}

// Prefetch fans the given pairs out across the worker pool and blocks
// until every one is cached. Duplicate pairs collapse onto one execution,
// so prefetching the union of several experiments' needs is cheap.
// Because each run is deterministic and isolated, a render after Prefetch
// is byte-identical to the same render on a serial session.
func (s *Session) Prefetch(pairs []Pair) {
	var wg sync.WaitGroup
	seen := make(map[string]bool, len(pairs))
	for _, p := range pairs {
		if p.Workload == nil {
			continue
		}
		key := p.Workload.Name + "/" + p.ABI.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		wg.Add(1)
		go func(p Pair) {
			defer wg.Done()
			s.Run(p.Workload, p.ABI)
		}(p)
	}
	wg.Wait()
}

// RunAll executes the full measurement campaign — every runnable workload
// under every ABI — across the worker pool.
func (s *Session) RunAll() {
	s.Prefetch(CampaignGrid())
}

// CampaignGrid returns the paper's full measurement grid: the 20 runnable
// workloads crossed with the three ABIs.
func CampaignGrid() []Pair {
	return pairsOf(workloads.All(), abi.All()...)
}

// pairsOf crosses a workload set with a list of ABIs.
func pairsOf(ws []*workloads.Workload, abis ...abi.ABI) []Pair {
	out := make([]Pair, 0, len(ws)*len(abis))
	for _, w := range ws {
		for _, a := range abis {
			out = append(out, Pair{Workload: w, ABI: a})
		}
	}
	return out
}

// namedPairs is pairsOf with a name lookup; unknown names are skipped
// (prefetching is best-effort — rendering reports the real error).
func namedPairs(names []string, abis ...abi.ABI) []Pair {
	var ws []*workloads.Workload
	for _, n := range names {
		if w, err := workloads.ByName(n); err == nil {
			ws = append(ws, w)
		}
	}
	return pairsOf(ws, abis...)
}

// RunByName is Run with a workload name lookup.
func (s *Session) RunByName(name string, a abi.ABI) (*RunData, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return s.Run(w, a), nil
}

// Seconds returns the simulated execution time for (w, a) in seconds, or
// 0 when the run faulted (so downstream ratios stay NaN-free).
func (s *Session) Seconds(w *workloads.Workload, a abi.ABI) float64 {
	d := s.Run(w, a)
	if d.Err != nil {
		return 0
	}
	return d.Metrics.Seconds
}

// Overhead returns time(a)/time(hybrid) for workload w.
func (s *Session) Overhead(w *workloads.Workload, a abi.ABI) float64 {
	hy := s.Seconds(w, abi.Hybrid)
	if hy == 0 {
		return 0
	}
	return s.Seconds(w, a) / hy
}

// ReplayStats always returns the zero value. It exists only for the frozen
// host-cost benchmark harness (hostbench/), which still calls it.
func ReplayStats() replay.Stats { return replay.Stats{} }
