package main

// metricDef names one reported metric. The end-to-end list is what an
// untraced run prints, the per-layer list what a traced run prints;
// BENCHMARK.json carries the same names and units (the package test holds
// the two in step).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"proof_full_s", "s", "lower"},
	{"proof_por_s", "s", "lower"},
	{"bytes_per_state", "B", "lower"},
	{"synth_s", "s", "lower"},
	{"hunt_p50_ms", "ms", "lower"},
	{"hunt_p95_ms", "ms", "lower"},
	{"verdict_p50_ms", "ms", "lower"},
	{"verdict_p90_ms", "ms", "lower"},
	{"cached_p50_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"restart_s", "s", "lower"},
}

var perLayer = []metricDef{
	// machine step, lang settle, machine key, visited set, check property
	// and meter: the replica walk's per-call ledger.
	{"machine.step_undo.ns", "ns", "lower"},
	{"machine.step_undo.per_state", "count", "lower"},
	{"machine.revert.ns", "ns", "lower"},
	{"machine.enumerate.ns", "ns", "lower"},
	{"lang.settle.ns", "ns", "lower"},
	{"machine.encode.ns", "ns", "lower"},
	{"machine.encode.bytes", "B", "lower"},
	{"machine.hash.ns", "ns", "lower"},
	{"check.visited.ns", "ns", "lower"},
	{"machine.visited_set.ns", "ns", "lower"},
	{"check.visited.fresh_ratio", "ratio", "higher"},
	{"check.occupancy.ns", "ns", "lower"},
	{"run.meter.ns", "ns", "lower"},
	// ledger health
	{"check.ledger.coverage", "ratio", "higher"},
	{"check.replica_ratio", "ratio", "lower"},
	{"trace.overhead", "ratio", "lower"},
	// check POR and engine
	{"check.por.state_ratio.seq", "ratio", "higher"},
	{"check.por.state_ratio.ws", "ratio", "higher"},
	{"check.por.ns_per_state_ratio", "ratio", "lower"},
	{"check.engine.speedup", "ratio", "higher"},
	{"check.engine.steals_per_kstate", "count", "lower"},
	{"check.engine.parks_per_kstate", "count", "lower"},
	{"check.engine.donated_per_kstate", "count", "lower"},
	{"check.engine.batch_lookups_per_state", "count", "lower"},
	{"check.engine.excess_states", "count", "lower"},
	// witness path, rme, witness
	{"check.subject_build.us", "us", "lower"},
	{"check.hunt.explore_ms", "ms", "lower"},
	{"check.hunt.states", "count", "lower"},
	{"check.minimize.ms", "ms", "lower"},
	{"check.minimize.shrink", "ratio", "higher"},
	{"witness.replay.ms", "ms", "lower"},
	{"witness.codec.us", "us", "lower"},
	// synth
	{"synth.oracle.calls", "count", "lower"},
	{"synth.oracle.states", "count", "lower"},
	{"synth.oracle.ms", "ms", "lower"},
	{"synth.oracle.share", "ratio", "lower"},
	{"synth.prune_ratio", "ratio", "higher"},
	{"synth.self.ms", "ms", "lower"},
	// serve
	{"serve.submit.ms_p50", "ms", "lower"},
	{"serve.poll.ms_p50", "ms", "lower"},
	{"serve.queue_wait.ms_p50", "ms", "lower"},
	{"serve.queue_wait.ms_p99", "ms", "lower"},
	{"serve.run.ms_p50", "ms", "lower"},
	{"serve.overhead.ms_p50", "ms", "lower"},
	{"serve.dedup_ratio", "ratio", "higher"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.backlog.max", "count", "lower"},
	{"serve.outbox.bytes_per_job", "B", "lower"},
	{"serve.restart.records", "count", "lower"},
	{"serve.generator.late_ms_p99", "ms", "lower"},
	// supervise and check checkpoint
	{"supervise.attempts_per_job", "count", "lower"},
	{"check.checkpoint.per_job", "count", "lower"},
}
