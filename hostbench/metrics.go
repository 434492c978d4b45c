package main

// metricDef names one reported metric; BENCHMARK.json lists the same set.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics, reported for every workload.
var endToEnd = []metricDef{
	{"cal_wall_s", "s", "lower"},
	{"cal_ns_per_uop", "ns", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the traced run's metrics. A metric a workload does not
// exercise (a render span on a grid, a store count without a store)
// reads 0 there.
func perLayer() []metricDef {
	out := []metricDef{
		{"wall_s", "s", "lower"},
		{"host_ns_per_uop", "ns", "lower"},
		{"host_speed", "ratio", "higher"},
	}
	for _, l := range layers {
		out = append(out, metricDef{"cpu." + l, "frac", "lower"})
	}
	out = append(out, metricDef{"cpu.samples", "count", "higher"})
	for _, n := range simNames() {
		out = append(out, metricDef{"sim." + n, "count", "lower"})
	}
	for _, w := range gridWorkloads {
		out = append(out, metricDef{"kernel_ns_per_uop." + w, "ns", "lower"})
	}
	out = append(out, metricDef{"prefetch_s", "s", "lower"}, metricDef{"resume_s", "s", "lower"})
	for _, id := range campaignIDs {
		out = append(out, metricDef{"render_s." + id, "s", "lower"})
	}
	return append(out,
		metricDef{"runs", "count", "lower"},
		metricDef{"profile_runs", "count", "lower"},
		metricDef{"singleflight_hits", "count", "higher"},
		metricDef{"replay.bytes", "bytes", "lower"},
		metricDef{"replay.served_uops", "count", "lower"},
		metricDef{"store.writes", "count", "lower"},
		metricDef{"store.hits", "count", "higher"},
		metricDef{"store.misses", "count", "lower"},
		metricDef{"gc.cpu_frac", "frac", "lower"},
		metricDef{"heap.alloc_mb", "MB", "lower"},
		metricDef{"trace_overhead_frac", "frac", "lower"},
		metricDef{"fail_rate", "ratio", "lower"},
		metricDef{"passes", "count", "higher"},
	)
}
