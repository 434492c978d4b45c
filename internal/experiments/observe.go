package experiments

import (
	"errors"
	"fmt"
	"time"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/faultinject"
	"cherisim/internal/telemetry"
	"cherisim/internal/workloads"
)

// runObserver is the session's view of the telemetry hub: every handle the
// run hot path touches, resolved once, plus the campaign-root span the
// run/experiment hierarchy hangs off. A nil observer (telemetry disabled)
// makes every method an allocation-free no-op, so the supervised execute
// path calls them unconditionally.
type runObserver struct {
	hub      *telemetry.Hub
	campaign *telemetry.Span
	finished bool

	runsStarted   *telemetry.Counter
	runsCompleted *telemetry.Counter
	runsFailed    *telemetry.Counter
	runsRetried   *telemetry.Counter
	runAttempts   *telemetry.Counter
	deadlines     *telemetry.Counter
	sfHits        *telemetry.Counter
	storeHits     *telemetry.Counter
	storeMisses   *telemetry.Counter
	storeWriteErr *telemetry.Counter
	profileRuns   *telemetry.Counter
	profileFns    *telemetry.Counter
	profileUops   *telemetry.Counter

	poolOccupancy *telemetry.Gauge
	poolWorkers   *telemetry.Gauge

	wallMs   *telemetry.Histogram
	simMs    *telemetry.Histogram
	runUops  *telemetry.Histogram
	injected []*telemetry.Counter                  // by faultinject.Kind
	surfaced map[core.FaultKind]*telemetry.Counter // manifested, by fault class
}

// newRunObserver resolves the engine's metric handles and opens the
// campaign-root span.
func newRunObserver(hub *telemetry.Hub) *runObserver {
	m := hub.Metrics
	o := &runObserver{
		hub:           hub,
		campaign:      hub.Start("campaign"),
		runsStarted:   m.Counter("runs_started"),
		runsCompleted: m.Counter("runs_completed"),
		runsFailed:    m.Counter("runs_failed"),
		runsRetried:   m.Counter("runs_retried"),
		runAttempts:   m.Counter("run_attempts"),
		deadlines:     m.Counter("deadline_aborts"),
		sfHits:        m.Counter("singleflight_hits"),
		storeHits:     m.Counter("store_hits"),
		storeMisses:   m.Counter("store_misses"),
		storeWriteErr: m.Counter("store_write_errors"),
		profileRuns:   m.Counter("profile_runs"),
		profileFns:    m.Counter("profile_functions"),
		profileUops:   m.Counter("profile_uops_attributed"),
		poolOccupancy: m.Gauge("pool_occupancy"),
		poolWorkers:   m.Gauge("pool_workers"),
		wallMs:        m.Histogram("run_wall_ms", telemetry.ExpBuckets(0.25, 2, 18)),
		simMs:         m.Histogram("run_sim_ms", telemetry.ExpBuckets(0.25, 2, 18)),
		runUops:       m.Histogram("run_uops", telemetry.ExpBuckets(1<<10, 4, 16)),
		surfaced:      map[core.FaultKind]*telemetry.Counter{},
	}
	for _, k := range faultinject.AllKinds() {
		o.injected = append(o.injected, m.Counter("faults_injected."+k.String()))
	}
	for k := core.KindUnknown; k <= core.KindSpurious; k++ {
		o.surfaced[k] = m.Counter("faults_manifested." + k.String())
	}
	return o
}

// sfHit counts a singleflight cache hit (a caller joining an in-flight or
// finished execution instead of starting its own).
func (o *runObserver) sfHit() {
	if o != nil {
		o.sfHits.Inc()
	}
}

// storeHit counts a run served from the persistent result store.
func (o *runObserver) storeHit() {
	if o != nil {
		o.storeHits.Inc()
	}
}

// storeMiss counts a store lookup that fell through to simulation.
func (o *runObserver) storeMiss() {
	if o != nil {
		o.storeMisses.Inc()
	}
}

// storeWriteError counts a failed best-effort store persist — the store
// stays permanently cold for that key, which a long-running service wants
// surfaced rather than silently re-simulating every campaign.
func (o *runObserver) storeWriteError() {
	if o != nil {
		o.storeWriteErr.Inc()
	}
}

// profiled counts one attribution profile captured (live or store-served)
// and publishes it to the hub's /profiles store under workload/abi.
func (o *runObserver) profiled(w *workloads.Workload, a abi.ABI, p *core.AttributionProfile) {
	if o == nil {
		return
	}
	o.profileRuns.Inc()
	o.profileFns.Add(int64(len(p.Functions)))
	var uops uint64
	for _, f := range p.Functions {
		uops += f.Uops
	}
	o.profileUops.Add(int64(uops + p.Residual.Uops))
	o.hub.Profiles.Put(w.Name+"/"+a.String(), p)
}

// runStart opens the workload-run span on the acquired worker's track.
// runs_started doubles as the singleflight miss count: every miss becomes
// exactly one execution.
func (o *runObserver) runStart(w *workloads.Workload, a abi.ABI, scale, worker int) *telemetry.Span {
	if o == nil {
		return nil
	}
	o.runsStarted.Inc()
	o.poolOccupancy.Add(1)
	track := o.hub.Spans.Track(fmt.Sprintf("worker-%d", worker))
	return o.campaign.Child("run:"+w.Name+"/"+a.String()).
		SetTrack(track).
		Attr("workload", w.Name).
		Attr("abi", a.String()).
		Attr("scale", scale)
}

// attemptStart opens one attempt span under the run span.
func (o *runObserver) attemptStart(run *telemetry.Span, attempt int) *telemetry.Span {
	if o == nil {
		return nil
	}
	o.runAttempts.Inc()
	return run.Child(fmt.Sprintf("attempt:%d", attempt))
}

// injectObserver builds the faultinject.Config.Observe callback for one
// attempt: an instant event on the attempt's track plus the per-kind
// injected counter. Returns nil on a nil observer so chaos runs without
// telemetry carry no callback at all.
func (o *runObserver) injectObserver(att *telemetry.Span, seed uint64) func(faultinject.Event) {
	if o == nil {
		return nil
	}
	att.Attr("chaos_seed", seed)
	return func(ev faultinject.Event) {
		o.injected[ev.Kind].Inc()
		att.Instant("inject:"+ev.Kind.String(),
			telemetry.A("uop", ev.Uop), telemetry.A("addr", ev.Addr))
	}
}

// attemptEnd closes one attempt span with the outcome attributes and feeds
// the attempt-level counters (deadline aborts, manifested faults, retries).
func (o *runObserver) attemptEnd(att *telemetry.Span, d *RunData, willRetry bool) {
	if o == nil {
		return
	}
	att.Attr("uops", d.Uops).Attr("injected", len(d.Injected))
	if d.Err != nil {
		att.Attr("err", d.Err.Error())
		if f, ok := faultOf(d.Err); ok {
			// A fault after injections is a manifestation: the corrupted
			// state (or delivered trap) surfaced as an architectural fault.
			if len(d.Injected) > 0 {
				o.surfaced[f.Kind].Inc()
			}
			att.Attr("fault_kind", f.Kind.String())
		}
		if isDeadline(d.Err) {
			o.deadlines.Inc()
		}
	}
	if willRetry {
		o.runsRetried.Inc()
		att.Attr("retried", true)
	}
	att.End()
}

// runEnd closes the run span with final attributes and feeds the run-level
// counters and histograms.
func (o *runObserver) runEnd(run *telemetry.Span, d *RunData, elapsed time.Duration) {
	if o == nil {
		return
	}
	o.poolOccupancy.Add(-1)
	o.wallMs.Observe(float64(elapsed.Nanoseconds()) / 1e6)
	run.Attr("attempts", d.Attempts).Attr("uops", d.Uops).Attr("injected", len(d.Injected))
	if d.Err != nil {
		o.runsFailed.Inc()
		run.Attr("err", d.Err.Error())
	} else {
		o.runsCompleted.Inc()
		simMs := d.Metrics.Seconds * 1e3
		o.simMs.Observe(simMs)
		run.Attr("sim_ms", simMs)
	}
	o.runUops.Observe(float64(d.Uops))
	run.End()
	o.hub.Logger().Debug("run finished",
		"attempts", d.Attempts, "uops", d.Uops, "err", d.Err)
}

// experimentSpan opens one experiment-render span under the campaign root.
func (o *runObserver) experimentSpan(e *Experiment) *telemetry.Span {
	if o == nil {
		return nil
	}
	return o.campaign.Child("experiment:"+e.ID).Attr("section", e.Section)
}

// experimentEnd closes an experiment span with its outcome.
func (o *runObserver) experimentEnd(sp *telemetry.Span, e *Experiment, err error) {
	if o == nil {
		return
	}
	if err != nil {
		o.hub.Metrics.Counter("experiments_failed").Inc()
		sp.Attr("err", err.Error())
		o.hub.Logger().Warn("experiment failed", "id", e.ID, "err", err)
	} else {
		o.hub.Metrics.Counter("experiments_rendered").Inc()
		o.hub.Logger().Info("experiment rendered", "id", e.ID)
	}
	sp.End()
}

// finish ends the campaign-root span (idempotent).
func (o *runObserver) finish() {
	if o == nil || o.finished {
		return
	}
	o.finished = true
	o.campaign.End()
}

// faultOf extracts the structured capability fault from a run error.
func faultOf(err error) (*core.Fault, bool) {
	var f *core.Fault
	ok := errors.As(err, &f)
	return f, ok
}

// isDeadline reports whether the run was aborted by the watchdog.
func isDeadline(err error) bool {
	var de *core.DeadlineError
	return errors.As(err, &de)
}
