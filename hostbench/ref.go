package main

import (
	"math"
	"time"
)

// The reference probe calibrates host time for the host's speed at the
// moment it was measured. On a shared host the speed of this simulator
// swings by up to 2x over minutes, because other tenants contend for the
// processor and its caches; no steal time is accounted meanwhile. The
// probe is a small, fixed workload shaped like the simulator's hot paths,
// run between the measured parts of a pass: random read-modify-writes
// over a 2 MiB array and random updates of a 50,000-key Go map, each
// first warmed so that it measures the host's speed rather than what the
// part before it left in the caches. Its time is the geometric mean of
// the two halves. A part's calibrated time is its wall time scaled by
// refNominal over the mean of the probes either side of it: what the part
// would have taken on a host running the probe in refNominal seconds. The
// probe is part of the benchmark, not of the simulator, so a change to the
// simulator moves the calibrated times and leaves the probe alone.
//
// On a shared 2-vCPU host, over 320 passes of ten grid pairs in ten
// minutes, calibrating each pair this way cut the spread (IQR/median) of
// 6-pass medians from 0.24-0.25 raw to 0.03-0.04. A pure-ALU loop, a
// cache-resident array alone, cold (unwarmed) data and DRAM-bound arrays
// tracked the simulator worse. In other periods on that host the
// simulator slowed while no probe shape did; sumOfPartMinima discounts
// those slowdowns.

// refNominal is about the probe's time on that host when it was quiet.
const refNominal = 0.0020

const (
	refArrLen  = 1 << 18 // 2 MiB of uint64
	refArrOps  = 300_000
	refMapKeys = 50_000
	refMapOps  = 200_000
)

// refProbe holds the probe's data, allocated once per process so that
// probing allocates nothing.
type refProbe struct {
	arr []uint64
	m   map[uint64]uint64
}

func newRefProbe() *refProbe {
	p := &refProbe{arr: make([]uint64, refArrLen), m: make(map[uint64]uint64, refMapKeys)}
	for k := uint64(0); k < refMapKeys; k++ {
		p.m[k] = k
	}
	return p
}

// refSink keeps the probe's results live.
var refSink uint64

// time runs the probe once and returns its time in seconds.
func (p *refProbe) time() float64 {
	var sum uint64
	for i := 0; i < len(p.arr); i += 8 { // one read per cache line
		sum += p.arr[i]
	}
	x := uint64(3)
	t0 := time.Now()
	for i := 0; i < refArrOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.arr[(x>>17)%refArrLen] += x
	}
	tArr := time.Since(t0).Seconds()
	p.mapOps(refMapKeys) // warm
	t0 = time.Now()
	p.mapOps(refMapOps)
	tMap := time.Since(t0).Seconds()
	refSink += sum + x
	return math.Sqrt(tArr * tMap)
}

func (p *refProbe) mapOps(n int) {
	x := uint64(7)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.m[(x>>20)%refMapKeys] += x
	}
}

// partTimer times the consecutive parts of a pass. With a probe it also
// probes the host between parts and records each part's calibrated time;
// the probes themselves are timed in no part.
type partTimer struct {
	res   *childResult
	probe *refProbe // nil: no calibration
	last  time.Time
	ref   float64 // the probe's time just before the current part
}

func newPartTimer(res *childResult, probe *refProbe) *partTimer {
	t := &partTimer{res: res, probe: probe}
	if probe != nil {
		t.ref = probe.time()
	}
	t.last = time.Now()
	return t
}

// done ends the current part under key and starts the next one.
func (t *partTimer) done(key string) {
	d := time.Since(t.last).Seconds()
	t.res.Parts[key] = d
	t.res.Values["wall_s"] += d
	if t.probe != nil {
		r := t.probe.time()
		t.res.Cal[key] = d * refNominal / ((t.ref + r) / 2)
		t.res.Refs = append(t.res.Refs, r)
		t.ref = r
	}
	t.last = time.Now()
}
