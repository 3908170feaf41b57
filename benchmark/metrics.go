package main

import (
	"encoding/json"
	"io"
)

// A metricDef names one number this program prints. Kind labels it host
// (time or memory the simulator takes; subject to the box's noise) or
// sim (what the modelled machine and controller did; repeats exactly for
// a fixed seed). Bound is the share of the parent's median by which an
// end-to-end metric may worsen before a change counts as a regression;
// per-layer metrics have none. BENCHMARK.json repeats this table for the
// driver and TestBenchmarkJSONMatches keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Kind   string
}

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"fig12", "the paper's headline experiment at 1 worker: cold machine.Solve under the ST oracle dominates and the fleet memo stack is bypassed"},
	{"fig12_par", "the same matrix at min(nproc,4) workers: only here do internal/parallel dispatch and the lock-striped shared L2 contend"},
	{"fleet_steady", "1024 noise-free long-lived nodes: pool, ProfileMemo, scoreMemo and both solve-cache tiers engaged, the solver almost idle"},
	{"fleet_noisy", "the same fleet with 2% PMC jitter: an input property that refuses profile-memo restore and the score memo, so those layers are bypassed"},
	{"fleet_churn", "2048 short-lived arrivals: machine.Reset, Manager.Reuse, cross-shape pool reuse and profile restore dominate instead of steady periods"},
	{"copartd_admit", "closed loop, 1 client on 1 keep-alive connection, admit-reweight-evict over HTTP against a free-running controller: the only path through controlplane"},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// endToEnd is printed by every workload with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host"},
	{"iter_ms_p10", "ms", "lower", 0.25, "host"},
	{"peak_rss_mb", "MB", "lower", 0.10, "host"},
	{"unfairness_mean", "cov", "lower", 0.25, "sim"},
}

// perLayer is printed by every workload with -trace 1. Layer = package.
var perLayer = []metricDef{
	{"membw.allocate_ns", "ns", "lower", 0, "host"},
	{"membw.allocate_capped_ns", "ns", "lower", 0, "host"},

	{"machine.solve_cold_ns", "ns", "lower", 0, "host"},
	{"machine.solve_exclusive_ns", "ns", "lower", 0, "host"},
	{"machine.solo_perf_ns", "ns", "lower", 0, "host"},
	{"machine.solve_l1_hit_ns", "ns", "lower", 0, "host"},
	{"machine.solve_l2_hit_ns", "ns", "lower", 0, "host"},
	{"machine.l1_hit_ratio", "ratio", "higher", 0, "sim"},
	{"machine.l2_hit_ratio", "ratio", "higher", 0, "host"},
	{"machine.l2_evictions_per_iter", "count", "lower", 0, "host"},
	{"machine.step_ns", "ns", "lower", 0, "host"},
	{"machine.step_noisy_ns", "ns", "lower", 0, "host"},
	{"machine.read_counters_ns", "ns", "lower", 0, "host"},
	{"machine.set_allocation_ns", "ns", "lower", 0, "host"},
	{"machine.step_ns_retired10k", "ns", "lower", 0, "host"},
	{"machine.add_remove_app_us", "us", "lower", 0, "host"},
	{"machine.reset_us", "us", "lower", 0, "host"},

	{"pmc.sample_ns", "ns", "lower", 0, "host"},

	{"core.classify_ns", "ns", "lower", 0, "host"},
	{"core.match_ns_4apps", "ns", "lower", 0, "host"},
	{"core.match_ns_6apps", "ns", "lower", 0, "host"},
	{"core.explore_period_ns", "ns", "lower", 0, "host"},
	{"core.explore_period_cached_ns", "ns", "lower", 0, "host"},
	{"core.idle_period_ns", "ns", "lower", 0, "host"},
	{"core.self_ns_per_period", "ns", "lower", 0, "host"},
	{"core.profile_us", "us", "lower", 0, "host"},
	{"core.profile_restore_us", "us", "lower", 0, "host"},
	{"core.reuse_us", "us", "lower", 0, "host"},
	{"core.score_memo_hit_ratio", "ratio", "higher", 0, "sim"},
	{"core.snapshot_us", "us", "lower", 0, "host"},
	{"core.restore_us", "us", "lower", 0, "host"},
	{"core.periods_per_s_under_admit", "1/s", "higher", 0, "host"},

	{"matching.solve_ns", "ns", "lower", 0, "host"},
	{"fairness.unfairness_ns", "ns", "lower", 0, "host"},
	{"fairness.tracker_update_ns", "ns", "lower", 0, "host"},

	{"workloads.mix_us", "us", "lower", 0, "host"},
	{"workloads.stream_ref_us", "us", "lower", 0, "host"},
	{"workloads.mixcache_hit_ns", "ns", "lower", 0, "host"},

	{"policies.eq_ms", "ms", "lower", 0, "host"},
	{"policies.st_ms", "ms", "lower", 0, "host"},
	{"policies.catonly_ms", "ms", "lower", 0, "host"},
	{"policies.mbaonly_ms", "ms", "lower", 0, "host"},
	{"policies.copart_ms", "ms", "lower", 0, "host"},
	{"policies.st_share", "ratio", "lower", 0, "host"},
	{"policies.copart_explore_s_mean", "s", "lower", 0, "sim"},

	{"experiments.fig1_ms", "ms", "lower", 0, "host"},
	{"experiments.fig4_ms", "ms", "lower", 0, "host"},
	{"experiments.fig15_ms", "ms", "lower", 0, "host"},
	{"experiments.fig16_ms", "ms", "lower", 0, "host"},
	{"experiments.fairness_gain_vs_eq_pct", "%", "higher", 0, "sim"},
	{"experiments.paper_gap_pp", "pp", "lower", 0, "sim"},

	{"parallel.fig12_speedup", "ratio", "higher", 0, "host"},
	{"parallel.fleet_speedup", "ratio", "higher", 0, "host"},
	{"parallel.foreach_overhead_ns", "ns", "lower", 0, "host"},

	{"fleet.node_periods_per_s", "1/s", "higher", 0, "host"},
	{"fleet.period_ns_p50", "ns", "lower", 0, "host"},
	{"fleet.period_ns_p99", "ns", "lower", 0, "host"},
	{"fleet.block_p99_spread", "ratio", "lower", 0, "host"},
	{"fleet.stripe_merge_us", "us", "lower", 0, "host"},
	{"fleet.pool_hit_ratio", "ratio", "higher", 0, "host"},
	{"fleet.carries_per_run", "count", "higher", 0, "sim"},
	{"fleet.reprofiles_per_node", "count", "lower", 0, "sim"},
	{"fleet.churn_peak_live", "count", "lower", 0, "sim"},

	{"controlplane.admit_us_p50", "us", "lower", 0, "host"},
	{"controlplane.admit_us_p90", "us", "lower", 0, "host"},
	{"controlplane.wait_for_drain_us", "us", "lower", 0, "host"},
	{"controlplane.apply_us", "us", "lower", 0, "host"},
	{"controlplane.http_overhead_us", "us", "lower", 0, "host"},
	{"controlplane.enqueue_drain_us", "us", "lower", 0, "host"},
	{"controlplane.http_add_us_p99", "us", "lower", 0, "host"},
	{"controlplane.http_reweight_us_p50", "us", "lower", 0, "host"},
	{"controlplane.http_remove_us_p50", "us", "lower", 0, "host"},
	{"controlplane.metrics_scrape_us_p50", "us", "lower", 0, "host"},
	{"controlplane.apps_get_us_p50", "us", "lower", 0, "host"},
	{"controlplane.snapshot_ms", "ms", "lower", 0, "host"},
	{"controlplane.admit_drift_ratio", "ratio", "lower", 0, "host"},

	{"resctrl.parse_ns", "ns", "lower", 0, "host"},
	{"resctrl.format_ns", "ns", "lower", 0, "host"},
	{"resctrl.write_schemata_us", "us", "lower", 0, "host"},

	{"go.allocs_per_iter", "count", "lower", 0, "host"},
	{"go.bytes_per_iter", "B", "lower", 0, "host"},
	{"go.gc_cycles", "count", "lower", 0, "host"},
	{"bench.iter_ms_p50", "ms", "lower", 0, "host"},
	{"bench.iter_ms_p90", "ms", "lower", 0, "host"},
	{"bench.iters_per_s", "1/s", "higher", 0, "host"},
	{"bench.calib_drift", "ratio", "lower", 0, "host"},
	{"trace.overhead_ratio", "ratio", "lower", 0, "host"},
}

// runSeconds is the length of one timed run the driver asks for.
const runSeconds = 12

// writeSpec writes BENCHMARK.json from the tables above (-spec), so the
// file is regenerated, never edited by hand.
func writeSpec(w io.Writer) error {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, d := range workloadDefs {
		spec.Workloads = append(spec.Workloads, wl(d))
	}
	for i := range endToEnd {
		d := &endToEnd[i]
		spec.EndToEnd = append(spec.EndToEnd, metric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
