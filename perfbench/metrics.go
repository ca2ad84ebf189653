package main

import "fmt"

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run (--trace 0) reports. The
// two fractions are reported as their complements, so that no metric is
// ever 0: run_ok_frac = 1 − failed_run_frac and invariant_ok_frac =
// 1 − invariant_violation_frac.
var endToEnd = []metricDef{
	{"runs_per_s", "runs/s"},
	{"cpu_ms_per_run", "ms"},
	{"allocs_per_run", "count"},
	{"alloc_bytes_per_run", "bytes"},
	{"setup_s", "s"},
	{"run_ok_frac", "ratio"},
	{"invariant_ok_frac", "ratio"},
}

// perLayer lists the metrics a traced run (--trace 1) reports. Every
// workload reports every name; a layer the workload does not run
// reports 0 (the matching *_samples count says so).
func perLayer() []metricDef {
	defs := []metricDef{
		{"experiments.crosscheck_share", "ratio"},
		{"experiments.worker_busy_frac", "ratio"},
		{"stepsim.run_ms_p50", "ms"},
		{"stepsim.run_ms_p99", "ms"},
		{"stepsim.run_samples", "count"},
		{"stepsim.engine_ns_per_event", "ns"},
		{"stepsim.engine_allocs_per_event", "count"},
	}
	for _, pair := range appModels() {
		defs = append(defs, metricDef{"stepsim.allocs_per_run." + pair, "count"})
	}
	for _, n := range nodeCounts() {
		defs = append(defs,
			metricDef{fmt.Sprintf("cluster.record_all_ns.%d", n), "ns"},
			metricDef{fmt.Sprintf("cluster.new_us.%d", n), "us"},
			metricDef{fmt.Sprintf("cluster.new_bytes.%d", n), "bytes"})
	}
	return append(defs, []metricDef{
		{"cluster.record_all_calls_per_run", "count"},
		{"failure.next_ns", "ns"},
		{"failure.events_per_run", "count"},
		{"iomodel.new_us", "us"},
		{"iomodel.lookup_ns", "ns"},
		{"platform.derive_us", "us"},
		{"scenario.load_us", "us"},
		{"machine.run_ms_p50", "ms"},
		{"machine.run_ms_p99", "ms"},
		{"machine.run_samples", "count"},
		{"machine.solo_share", "ratio"},
		{"machine.arbiter_ns_per_flow", "ns"},
		{"machine.decisions_per_run", "count"},
		{"machine.escalations_per_run", "count"},
		{"faultinject.brownouts_per_run", "count"},
		{"faultinject.drain_outages_per_run", "count"},
		{"faultinject.tenant_crashes_per_run", "count"},
		{"crmodel.run_ms_p50", "ms"},
		{"crmodel.run_samples", "count"},
		{"runtime.gc_cycles_per_run", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"bench.untraced_runs_per_s", "runs/s"},
		{"bench.traced_runs_per_s", "runs/s"},
		{"bench.trace_overhead_frac", "ratio"},
		{"bench.steal_frac", "ratio"},
		{"bench.accounted_frac", "ratio"},
	}...)
}

// appModels lists the "<APP>.<MODEL>" configurations of every workload,
// in workload order, each once.
func appModels() []string {
	var out []string
	seen := map[string]bool{}
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, p := range loadAll() {
		for _, c := range p.cells {
			add(c.app + "." + c.id.String())
		}
		for _, j := range p.mjobs {
			add(j.Platform.App.Name + "." + j.Model.String())
		}
	}
	return out
}
