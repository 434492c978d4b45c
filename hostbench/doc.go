// Command hostbench measures what the simulator costs its host: end to end
// first, then split by layer. Run it from the repository root:
//
//	bash hostbench/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
//
// It prints one JSON line: whether every output was correct, how many
// checked operations were attempted and failed, and the metrics. Each
// measured pass runs in a fresh child process of this command: the replay
// cache is process-global (a second cold pass in one process would replay
// the first one's streams and measure a different program), and peak RSS
// is a per-process high-water mark. A child asserts that
// experiments.ReplayStats is zero before it starts.
//
// # Workloads
//
// The seed only permutes the order of execution (the campaign's Prefetch
// order, the grids' pair order); the kernel inputs are fixed by the paper's
// campaign. Seed 1 is the default; seed 7919 is held out for claims, and
// is not used while tuning a change.
//
//   - campaign: the 20 experiments `experiments -all` rendered when the
//     benchmark was defined (campaignIDs), at scale 1, Jobs=1: cold passes,
//     each into a fresh empty result store, then 9 warm resume passes on
//     fresh Sessions over the first cold pass's store. It is what a
//     researcher waits for, and
//     the only workload that exercises the session's singleflight and
//     pool, replay record/serve (ablations), duplicate profiled runs
//     (hotspots), the quad co-runs, chaos (resilience), store writes and
//     reads, and render.
//   - grid-hybrid: the 20 workloads (gridWorkloads) x hybrid, each on a
//     fresh machine through workloads.ExecuteConfig, the call behind the
//     cherisim.Run facade. No session, replay, store or render; hybrid
//     skips every bounds check, so alloc.Heap.Owner and capability traffic
//     drop out: the bypass case for flattening the hot-path indices. On
//     this path per-function attribution is on.
//   - grid-purecap: the same over purecap: bounds checks through
//     Heap.Owner, capability loads and stores, tag memory, PCC-bounds
//     branch stalls, a larger TLB and cache footprint. purecap-benchmark
//     is left out: it simulates the same µop stream (the same sim.*
//     counts) at the same host cost without PCC-bounds stalls, so it
//     would double each pass and halve the passes a run can take, while
//     exercising no layer purecap does not.
//
// # End-to-end metrics (untraced runs, --trace 0)
//
// A run measures untraced passes, one per process, as many as fit in
// --seconds and at least two (a campaign cold pass alone takes most of
// --seconds 25, so a campaign run takes two); the per-layer metric passes
// reports how many.
//
// Host times are host wall-clock, calibrated for the host's speed (see
// ref.go). On a shared 2-vCPU cloud host the simulator's speed swings by
// up to 2x over minutes as other tenants contend for the processor and
// its caches, so raw wall times of the same code spread past
// any useful bound between runs minutes apart. Each untraced cold or grid
// pass therefore runs a small fixed reference probe before its first part
// and after every part, and scales each part's wall time by the probe's
// nominal time over the mean of the two probes around it. The probe is
// the benchmark's own code, so a change to the simulator moves the
// calibrated times one for one. The raw times are per-layer metrics.
//
//   - cal_wall_s: one pass, taken part by part: the sum over the parts of
//     each part's shortest calibrated time across the run's passes (see
//     sumOfPartMinima). The parts are a grid's pairs and a cold campaign
//     pass's phases: Prefetch in chunks of prefetchChunk pairs, then each
//     experiment's render.
//   - cal_ns_per_uop: cal_wall_s over the simulated µops (Machine.Uops).
//     For the campaign, the µops of its 60-pair measurement grid: the
//     experiment-private runs (ablations, kernels, co-runs) are not in the
//     denominator.
//   - peak_rss_mb: peak RSS of the measured process (getrusage maxrss).
//     The median over the run's passes. The probe's 3 MiB or so of data
//     are in it.
//   - setup_s: process start until the process is ready to simulate its
//     first µop: the pass's own set-up, then the first pair's machine built
//     as workloads.ExecuteConfig builds it. The median over 31 processes
//     per run that set up as a pass does and exit there, each calibrated
//     by a probe the parent runs just before spawning it.
//
// The failure rate is the result line's failed/attempted; fail_rate
// repeats it among the per-layer metrics. Every check is one attempted
// operation: each pair's metric vector against testdata/golden-scale1.json
// under the baseline's own tolerance (the grids, and every pair of the
// campaign's cold Session.MetricSnapshot and of the baseline), the render
// (no RenderError), the rendered report's SHA-256 against renderDigest
// (byte-identical to `experiments -all -jobs 1`), the simulated work
// counts against pinnedSim, and for every warm pass: the same bytes as the
// cold pass, Executions()==0 and no store misses. Any failure makes the
// command exit non-zero.
//
// # Per-layer metrics (the traced run, --trace 1)
//
// A traced run first measures the untraced passes exactly as --trace 0
// does, then traced passes for another --seconds, and at least one: a
// runtime/pprof CPU profile and a telemetry.Hub (on Session.Telemetry for
// the campaign). Each traced pass writes cpu.pprof and a Perfetto
// trace.json, and the run writes layers.txt, under .bench_build/hostbench/.
// Counts and span metrics are medians over the traced passes. A metric a
// workload does not exercise reads 0 there (render spans and store counts
// on the grids, for instance). What each should move, and where:
//
//   - cpu.<layer>: the share of CPU samples whose stack, walked from the
//     leaf, first reaches that layer (see layerOf); they sum to 1 over
//     cpu.samples samples of all the traced passes, read with `go tool
//     pprof -traces`.
//     cpu.runtime.map, cpu.alloc, cpu.tlb, cpu.mem → cal_ns_per_uop on
//     grid-purecap (alloc ≈ 0 on grid-hybrid), and cal_wall_s on campaign.
//     cpu.core.attribute → cal_ns_per_uop on both grids; on the campaign
//     only through render_s.hotspots (campaign sessions disable
//     attribution). cpu.cache, cpu.branch, cpu.cap → cal_ns_per_uop on
//     the grids (cap mostly on purecap). cpu.replay, cpu.resultstore,
//     cpu.experiments, cpu.runtime.gc → cal_wall_s and peak_rss_mb on
//     campaign. cpu.core, cpu.workloads, cpu.analysis, cpu.soc,
//     cpu.faultinject, cpu.telemetry, cpu.other complete the split.
//   - prefetch_s: the benchmark's span around the campaign's chunked
//     Session.Prefetch calls → campaign cal_wall_s. render_s.<experiment>: the
//     session's own experiment span → campaign cal_wall_s; render_s.hotspots
//     is where the duplicate profiled runs show, render_s.ablation-* where
//     replay is served.
//   - kernel_ns_per_uop.<workload>: from the run spans (the session's on
//     the campaign, the benchmark's own on the grids) → cal_ns_per_uop on
//     the grids, cal_wall_s on the campaign.
//   - resume_s: the campaign's warm pass, zero simulations (median of the
//     warm passes) → nothing else; it is the store-read and render cost.
//   - sim.*: simulated work, summed over the grid's pairs from the PMU
//     counters (the campaign: its 60-pair grid). They must repeat exactly,
//     and a simulator-only speed-up must not move them; cal_ns_per_uop
//     divides by sim.uops.
//   - runs, profile_runs, singleflight_hits, replay.served_uops → campaign
//     cal_wall_s; replay.bytes → campaign peak_rss_mb; store.writes,
//     store.hits, store.misses → campaign cal_wall_s and resume_s.
//   - gc.cpu_frac, heap.alloc_mb (runtime/metrics) → cal_wall_s and
//     peak_rss_mb.
//   - trace_overhead_frac: the traced passes' median wall time over the
//     untraced ones', minus 1.
//   - wall_s, host_ns_per_uop: cal_wall_s and cal_ns_per_uop from the raw
//     part times of the same untraced passes.
//   - host_speed: the probe's nominal time over its median time in the
//     untraced passes; below 1 when the host ran slow.
//   - passes: how many untraced passes the end-to-end figures are taken over.
package main
