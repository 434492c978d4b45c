package main

// The workload inputs, pinned at the commit that defined this benchmark so
// that later experiments or workloads do not change what it measures, and
// the deterministic outputs a correct simulator produces on them.

// campaignIDs are the 20 experiments `experiments -all` renders, in render
// order. The Manual gates (scale, security) are out of scope.
var campaignIDs = []string{
	"table1", "table2", "fig1", "fig2", "table3", "table4", "fig4", "fig5",
	"fig6", "fig7", "claims", "ablation-predictor", "ablation-storequeue",
	"ablation-caches", "ext-compartment", "ext-multicore", "ext-revocation",
	"ext-sweep", "resilience", "hotspots",
}

// gridWorkloads are the 20 runnable workloads of the measurement grid.
var gridWorkloads = []string{
	"510.parest_r", "519.lbm_r", "520.omnetpp_r", "523.xalancbmk_r",
	"525.x264_r", "531.deepsjeng_r", "541.leela_r", "544.nab_r", "557.xz_r",
	"620.omnetpp_s", "623.xalancbmk_s", "625.x264_s", "631.deepsjeng_s",
	"641.leela_s", "644.nab_s", "657.xz_s", "llama-inference", "llama-matmul",
	"quickjs", "sqlite",
}

// renderDigest is the SHA-256 of the campaign's rendered report at scale 1:
// byte-identical to the standard output of `experiments -all -jobs 1`.
const renderDigest = "73e6eb1706fb83e1046f0b56dc22913af9d8ba4e0891e0c3f200c46a5c4d5be3"

// pinnedSim holds, per ABI, the simulated work counts summed over
// gridWorkloads at scale 1 (see simCounts for the names).
var pinnedSim = map[string]simCounts{
	"hybrid": {
		"uops":        52618263,
		"heap_allocs": 280673,
		"l1d_access":  15364108,
		"l1d_refill":  1601736,
		"l2d_refill":  1286544,
		"llc_miss_rd": 1247502,
		"dtlb_walk":   9851,
		"itlb_walk":   62,
		"br_mis_pred": 709877,
		"cap_mem_rd":  0,
		"cap_mem_wr":  0,
	},
	"purecap": {
		"uops":        62684649,
		"heap_allocs": 280673,
		"l1d_access":  15364108,
		"l1d_refill":  1871034,
		"l2d_refill":  1502382,
		"llc_miss_rd": 1490931,
		"dtlb_walk":   13999,
		"itlb_walk":   69,
		"br_mis_pred": 709877,
		"cap_mem_rd":  3692316,
		"cap_mem_wr":  2665319,
	},
	"purecap-benchmark": {
		"uops":        62684649,
		"heap_allocs": 280673,
		"l1d_access":  15364108,
		"l1d_refill":  1871034,
		"l2d_refill":  1502382,
		"llc_miss_rd": 1490931,
		"dtlb_walk":   13999,
		"itlb_walk":   69,
		"br_mis_pred": 709877,
		"cap_mem_rd":  3692316,
		"cap_mem_wr":  2665319,
	},
}
