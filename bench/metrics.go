package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json carries name, unit,
// better and (end to end) bound; layer and moves — the end-to-end
// metric @ workload a per-layer number is expected to move — live here
// and in README.md because the BENCHMARK.json schema has no field for
// them. bench_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end to end only: share of the parent's median
	layer, moves       string  // per layer only
}

// endToEnd are the metrics a user of hfxmd sees, reported by every
// workload from the untraced pass. op_ms and cpu_ms_per_op are the mean
// op of the list at the pace of an undisturbed machine (steady.go).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_peak_mb", unit: "MiB", better: "lower", bound: 0.25},
}

const (
	mvColdOp    = "op_ms@cold_fock"
	mvWarmOp    = "op_ms@warm_serve"
	mvWarmP90   = "op_p90_ms@warm_serve" // itself per layer: no tail is steady enough on this machine to gate on
	mvWarmSetup = "setup_s@warm_serve"
	mvAimdOp    = "op_ms@aimd_traj"
	mvDistOp    = "op_ms@dist_fock"
	mvAllCPU    = "cpu_ms_per_op@all"
	mvAllRSS    = "rss_peak_mb@all"
)

// perLayer are the single-layer metrics, reported by every workload
// from the traced pass. A metric reads 0 on a workload whose ops never
// enter its layer.
var perLayer = []metricDef{
	// Outcome and exact cost counters of the whole run. They cannot be
	// end-to-end metrics under the BENCHMARK.json contract (0 on most
	// workloads, absolute bounds), so they ride here; failures and
	// accuracy also decide the run's `correct`/`failed` fields. The
	// whole-run median, 90th percentile and throughput are what the
	// machine delivered, disturbed stretches and all: read, not gated.
	{name: "fail_ratio", unit: "ratio", better: "lower", layer: "run", moves: "correct@all"},
	{name: "accuracy_err", unit: "abs", better: "lower", layer: "run", moves: "correct@all"},
	{name: "op_p50_ms", unit: "ms", better: "lower", layer: "run", moves: "op_ms@all"},
	{name: "op_p90_ms", unit: "ms", better: "lower", layer: "run", moves: "op_ms@all"},
	{name: "ops_per_s", unit: "1/s", better: "higher", layer: "run", moves: "op_ms@all"},
	{name: "quartets_per_op", unit: "count", better: "lower", layer: "run", moves: mvColdOp},
	{name: "scf_iters_per_step", unit: "count", better: "lower", layer: "run", moves: mvAimdOp},
	{name: "fock_builds_per_op", unit: "count", better: "lower", layer: "run", moves: mvWarmOp},

	{name: "fleet.route_ms_p50", unit: "ms", better: "lower", layer: "fleet", moves: mvWarmOp},
	{name: "fleet.price_ms_p50", unit: "ms", better: "lower", layer: "fleet", moves: mvColdOp},
	{name: "fleet.cache_hit_ratio", unit: "ratio", better: "higher", layer: "fleet", moves: mvWarmOp},
	{name: "fleet.queued_op_ratio", unit: "ratio", better: "lower", layer: "fleet", moves: mvColdOp},
	{name: "fleet.retry_sweeps", unit: "count", better: "lower", layer: "fleet", moves: "correct@all"},
	{name: "fleet.rejected_busy", unit: "count", better: "lower", layer: "fleet", moves: "correct@all"},

	{name: "server.queue_ms_p50", unit: "ms", better: "lower", layer: "server", moves: mvColdOp},
	{name: "server.queue_ms_p90", unit: "ms", better: "lower", layer: "server", moves: mvColdOp},
	{name: "server.buildjk_run_ms_p50", unit: "ms", better: "lower", layer: "server", moves: mvColdOp},
	{name: "server.scf_run_ms_p50", unit: "ms", better: "lower", layer: "server", moves: mvColdOp},
	{name: "server.hit_ms_p50", unit: "ms", better: "lower", layer: "server", moves: mvWarmOp},
	{name: "server.hit_ms_p99", unit: "ms", better: "lower", layer: "server", moves: mvWarmP90},
	{name: "server.miss_ms_p50", unit: "ms", better: "lower", layer: "server", moves: mvWarmP90},
	{name: "server.encode_us_p50", unit: "us", better: "lower", layer: "server", moves: mvWarmOp},
	{name: "server.result_bytes_p50", unit: "B", better: "lower", layer: "server", moves: mvWarmOp},

	{name: "store.hot_get_us_p50", unit: "us", better: "lower", layer: "store", moves: mvWarmOp},
	{name: "store.disk_get_us_p50", unit: "us", better: "lower", layer: "store", moves: mvWarmP90},
	{name: "store.put_us_p50", unit: "us", better: "lower", layer: "store", moves: mvWarmP90},
	{name: "store.open_ms", unit: "ms", better: "lower", layer: "store", moves: mvWarmSetup},
	{name: "store.hot_hit_ratio", unit: "ratio", better: "higher", layer: "store", moves: mvWarmOp},
	{name: "store.evictions", unit: "count", better: "lower", layer: "store", moves: mvWarmP90},
	{name: "store.disk_bytes", unit: "B", better: "lower", layer: "store", moves: mvWarmSetup},

	{name: "basis.build_us_p50", unit: "us", better: "lower", layer: "basis", moves: mvColdOp},
	{name: "integrals.schwarz_ms_p50", unit: "ms", better: "lower", layer: "integrals", moves: mvColdOp},
	{name: "screen.pairlist_ms_p50", unit: "ms", better: "lower", layer: "screen", moves: mvColdOp},
	{name: "screen.pairs_survived", unit: "count", better: "lower", layer: "screen", moves: "quartets_per_op@cold_fock"},
	{name: "screen.quartet_skip_ratio", unit: "ratio", better: "higher", layer: "screen", moves: "quartets_per_op@cold_fock"},
	{name: "hfx.tasks", unit: "count", better: "lower", layer: "hfx", moves: mvColdOp},
	{name: "sched.lpt_us_p50", unit: "us", better: "lower", layer: "sched", moves: mvColdOp},
	{name: "sched.balance_ratio", unit: "ratio", better: "lower", layer: "sched", moves: mvDistOp},

	{name: "integrals.eri_ssss_ns", unit: "ns", better: "lower", layer: "integrals", moves: mvColdOp},
	{name: "integrals.eri_ppss_ns", unit: "ns", better: "lower", layer: "integrals", moves: mvColdOp},
	{name: "integrals.eri_pppp_ns", unit: "ns", better: "lower", layer: "integrals", moves: mvColdOp},
	{name: "integrals.eri_pppp_vec_ns", unit: "ns", better: "lower", layer: "integrals", moves: mvColdOp},
	{name: "integrals.ns_per_quartet", unit: "ns", better: "lower", layer: "integrals", moves: mvColdOp},
	{name: "boys.eval_ns", unit: "ns", better: "lower", layer: "boys", moves: mvColdOp},
	{name: "qpx.boysbatch_ns", unit: "ns", better: "lower", layer: "qpx", moves: mvColdOp},
	{name: "qpx.lane_utilization", unit: "ratio", better: "higher", layer: "qpx", moves: mvColdOp},

	{name: "hfx.newbuilder_ms_p50", unit: "ms", better: "lower", layer: "hfx", moves: mvAimdOp},
	{name: "hfx.direct_build_ms_p50", unit: "ms", better: "lower", layer: "hfx", moves: mvColdOp},
	{name: "hfx.semidirect_build_ms_p50", unit: "ms", better: "lower", layer: "hfx", moves: mvAimdOp},
	{name: "hfx.incremental_build_ms_p50", unit: "ms", better: "lower", layer: "hfx", moves: mvAimdOp},
	{name: "hfx.rebind_us_p50", unit: "us", better: "lower", layer: "hfx", moves: mvAimdOp},
	{name: "hfx.zero_ms", unit: "ms", better: "lower", layer: "hfx", moves: mvColdOp},
	{name: "hfx.compute_ms", unit: "ms", better: "lower", layer: "hfx", moves: mvColdOp},
	{name: "hfx.reduce_ms", unit: "ms", better: "lower", layer: "hfx", moves: mvColdOp},
	{name: "hfx.quartets_per_build", unit: "count", better: "lower", layer: "hfx", moves: mvColdOp},
	{name: "hfx.eri_cache_hit_ratio", unit: "ratio", better: "higher", layer: "hfx", moves: mvAimdOp},
	{name: "hfx.eri_cache_bytes", unit: "B", better: "lower", layer: "hfx", moves: mvAllRSS},
	{name: "hfx.allocs_per_build", unit: "count", better: "lower", layer: "hfx", moves: mvAllCPU},
	{name: "hfx.spill_export_ms", unit: "ms", better: "lower", layer: "hfx", moves: mvColdOp},
	{name: "hfx.spill_import_ms", unit: "ms", better: "lower", layer: "hfx", moves: mvColdOp},
	{name: "hfx.spill_bytes", unit: "B", better: "lower", layer: "hfx", moves: mvColdOp},
	{name: "hfx.pool_t2_build_ms_p50", unit: "ms", better: "lower", layer: "hfx", moves: mvDistOp},
	{name: "hfx.dist_r1t2_build_ms_p50", unit: "ms", better: "lower", layer: "hfx", moves: mvDistOp},
	{name: "hfx.dist_r2t1_build_ms_p50", unit: "ms", better: "lower", layer: "hfx", moves: mvDistOp},
	{name: "hfx.steal_r2t1_build_ms_p50", unit: "ms", better: "lower", layer: "hfx", moves: mvDistOp},
	{name: "hfx.dist_r1_over_pool", unit: "ratio", better: "lower", layer: "hfx", moves: mvDistOp},

	{name: "mprt.r2_comm_bytes", unit: "B", better: "lower", layer: "mprt", moves: mvDistOp},
	{name: "mprt.r4_comm_bytes", unit: "B", better: "lower", layer: "mprt", moves: mvDistOp},
	{name: "mprt.r4_reduce_steps", unit: "count", better: "lower", layer: "mprt", moves: mvDistOp},
	{name: "mprt.r2_comm_ms_max", unit: "ms", better: "lower", layer: "mprt", moves: mvDistOp},
	{name: "mprt.r2_compute_ms_max", unit: "ms", better: "lower", layer: "mprt", moves: mvDistOp},
	{name: "mprt.allreduce_r4_us_p50", unit: "us", better: "lower", layer: "mprt", moves: mvDistOp},
	{name: "steal.steals_succeeded", unit: "count", better: "higher", layer: "steal", moves: mvDistOp},
	{name: "steal.blocks_migrated", unit: "count", better: "higher", layer: "steal", moves: mvDistOp},
	{name: "steal.balance_measured", unit: "ratio", better: "lower", layer: "steal", moves: mvDistOp},
	{name: "steal.idle_reclaimed_ms", unit: "ms", better: "higher", layer: "steal", moves: mvDistOp},

	{name: "scf.iters_per_run", unit: "count", better: "lower", layer: "scf", moves: mvColdOp},
	{name: "scf.iter_ms_p50", unit: "ms", better: "lower", layer: "scf", moves: mvAimdOp},
	{name: "scf.run_ms_p50", unit: "ms", better: "lower", layer: "scf", moves: mvAimdOp},
	{name: "linalg.eigensym_us_p50", unit: "us", better: "lower", layer: "linalg", moves: mvAimdOp},
	{name: "linalg.mul_us_p50", unit: "us", better: "lower", layer: "linalg", moves: mvAimdOp},
	{name: "dft.grid_build_ms_p50", unit: "ms", better: "lower", layer: "dft", moves: mvAimdOp},
	{name: "dft.grid_points", unit: "count", better: "lower", layer: "dft", moves: mvAimdOp},
	{name: "dft.pbe0_eval_ns", unit: "ns", better: "lower", layer: "dft", moves: mvAimdOp},
	{name: "dft.xc_ms_per_iter", unit: "ms", better: "lower", layer: "dft", moves: mvAimdOp},

	{name: "md.warm_start_ratio", unit: "ratio", better: "higher", layer: "md", moves: "scf_iters_per_step@aimd_traj"},
	{name: "md.pairlist_reuse_ratio", unit: "ratio", better: "higher", layer: "md", moves: mvAimdOp},
	{name: "md.displaced_runs_per_outer", unit: "count", better: "lower", layer: "md", moves: mvAimdOp},
	{name: "md.forces_ms_p50", unit: "ms", better: "lower", layer: "md", moves: mvAimdOp},
	{name: "respa.outer_step_ms_p50", unit: "ms", better: "lower", layer: "respa", moves: mvAimdOp},
	{name: "respa.cheap_force_us_p50", unit: "us", better: "lower", layer: "respa", moves: mvAimdOp},
	{name: "respa.drift_per_atom", unit: "Eh", better: "lower", layer: "respa", moves: "accuracy_err@aimd_traj"},
	{name: "ckpt.journal_append_us_p50", unit: "us", better: "lower", layer: "ckpt", moves: mvAimdOp},
	{name: "ckpt.snapshot_ms_p50", unit: "ms", better: "lower", layer: "ckpt", moves: mvAimdOp},
	{name: "ckpt.encode_us_p50", unit: "us", better: "lower", layer: "ckpt", moves: mvAimdOp},
	{name: "ckpt.bytes_per_inner_step", unit: "B", better: "lower", layer: "ckpt", moves: mvAimdOp},

	{name: "workload.gen_ms", unit: "ms", better: "lower", layer: "workload", moves: "setup_s@all"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", layer: "trace", moves: "op_ms@all"},
	{name: "trace.walk_coverage", unit: "ratio", better: "higher", layer: "trace", moves: mvColdOp},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower", layer: "proc", moves: mvAllCPU},
	{name: "proc.alloc_mb", unit: "MiB", better: "lower", layer: "proc", moves: mvAllRSS},
	{name: "proc.goroutines_leaked", unit: "count", better: "lower", layer: "proc", moves: mvAllRSS},
	{name: "proc.calib_ms_before", unit: "ms", better: "lower", layer: "proc", moves: mvAllCPU},
	{name: "proc.calib_ms_after", unit: "ms", better: "lower", layer: "proc", moves: mvAllCPU},
	{name: "proc.steal_ratio", unit: "ratio", better: "lower", layer: "proc", moves: mvAllCPU},
}

// exactCounters repeat exactly for one seed and op list; -compare
// requires them equal.
var exactCounters = []string{
	"quartets_per_op", "scf_iters_per_step", "scf.iters_per_run",
	"mprt.r2_comm_bytes", "mprt.r4_comm_bytes", "mprt.r4_reduce_steps",
	"screen.pairs_survived", "hfx.tasks", "hfx.quartets_per_build", "dft.grid_points",
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects the values of one run, keyed by metric name.
type metrics map[string]float64

// report turns the collected values into the declared set: every
// declared metric is present (0 when the workload never set it) and an
// undeclared name is a bug in the benchmark.
func (m metrics) report(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: m[d.name], Unit: d.unit}
	}
	var unknown []string
	for name := range m {
		if _, ok := out[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("bench: undeclared metrics %v", unknown)
	}
	return out, nil
}
