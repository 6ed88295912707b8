package main

// metricDef is one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units; the test keeps the two
// in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the attack
// pipelines or of the query service sees.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"mem_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run. Every workload reports all of
// them; a layer the workload does not cross reads 0.
var perLayer = []metricDef{
	{"stage.input_ms", "ms"},
	{"stage.curator_ms", "ms"},
	{"stage.adversary_ms", "ms"},
	{"stage.harness_ms", "ms"},
	{"stage.accounted_frac", "ratio"},
	{"synth.records_per_op", "count"},
	{"pso.weight_draws_per_op", "count"},
	{"pso.count_queries_per_op", "count"},
	{"kanon.classes_per_op", "count"},
	{"query.count_per_op", "count"},
	{"recon.cold_restarts_per_op", "count"},
	{"lp.pivots_per_op", "count"},
	{"lp.dual_pivots_per_op", "count"},
	{"lp.phase1_pivots_per_op", "count"},
	{"lp.refactorizations_per_op", "count"},
	{"lp.warm_hit_ratio", "ratio"},
	{"sat.decisions_per_op", "count"},
	{"sat.propagations_per_op", "count"},
	{"sat.conflicts_per_op", "count"},
	{"par.busy_frac", "ratio"},
	{"remote.cache_hit_ratio", "ratio"},
	{"remote.ledger_entries_per_op", "count"},
	{"remote.wal_bytes_per_op", "B"},
	{"remote.retries", "count"},
	{"remote.shed", "count"},
	{"go.alloc_mb_per_op", "MiB"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"obs.trace_dropped", "count"},
}

// unitOf returns the unit of a listed metric. An unlisted name is a bug in
// this package, caught by the test.
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: metric " + name + " is not listed")
}
