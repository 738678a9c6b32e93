package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the smoke test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the workload sees. Every workload
// reports each of them; "op" is the workload's unit of work: a paper
// pass, one fleet epoch, one served run (closed loop), or one cluster
// barrier-to-barrier epoch. work_per_s counts experiments, UE ticks,
// served runs and UE ticks respectively.
//
// The op p90 and peak RSS are per-layer metrics, beyond the bound any
// end-to-end metric can have: a run holds about seven paper passes, so
// their p90 is nearly the slowest pass and moved by 7% between runs,
// and remserve's peak RSS moved by 12% with its garbage collector's
// timing.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"work_per_s", "1/s", "higher"},
}

// paperExperiments are the registered experiments, each with its own
// per-layer metric. paper_quick runs whatever the registry holds, like
// remeval -all does; an experiment missing here is still timed in the
// pass, it just has no metric of its own.
var paperExperiments = []string{
	"5g-projection", "ablation-accel", "ablation-crossband", "ablation-hybrid",
	"ablation-subgrid", "ablation-svdrank", "ablation-ttt", "appendix-a",
	"faultsweep", "fig10", "fig11", "fig12", "fig13", "fig14a", "fig14b",
	"fig15", "fig2a", "fig2b", "fig3", "fig4", "fig9", "goodputsweep",
	"table2", "table3", "table4", "table5",
}

// smokeExperiments are three cheap experiments, two of them PHY, that
// the smoke scale runs instead of the full registry.
var smokeExperiments = []string{"fig10", "fig11", "table3"}

// cpuBuckets are the CPU-profile attribution targets: the repository's
// modules (a sample goes to the innermost frame of one of them), then
// the stdlib and runtime buckets for samples outside every module.
var cpuBuckets = []string{
	"dsp", "chanmodel", "ofdm", "otfs", "crossband", "locate", "geo", "ran",
	"mobility", "core", "policy", "rrc", "sim", "trace", "fault", "obs",
	"transport", "tcpsim", "fleet", "cluster", "eval", "par", "remserve",
	"runtime.gc", "runtime.other", "net", "encoding_json", "other",
}

// perLayer lists every per-layer metric a traced run prints.
func perLayer() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit, "lower"})
		}
	}
	for _, id := range paperExperiments {
		add("ms", "eval."+id+".ms")
	}
	add("ms", "fleet.new_engine.ms", "fleet.step_epoch.ms_p50", "fleet.step_epoch.ms_p90", "fleet.finish.ms")
	add("count", "fleet.epoch_allocs", "fleet.events_per_epoch")
	add("ms", "op.ms_p90")
	add("MB", "proc.peak_rss_mb")
	add("count", "go.gc_cycles")
	add("ms", "go.gc_pause_ms")
	add("MB", "go.alloc_mb", "go.heap_peak_mb")
	add("ms", "serve.open.ms_p50", "serve.open.ms_p90", "serve.gen_late.ms_p99")
	add("ms", "serve.submit.ms_p50", "serve.queue.ms_p50", "serve.exec.ms_p50", "serve.fetch.ms_p50")
	add("KB", "serve.result_kb")
	add("ms", "serve.server_cpu_ms_per_run", "serve.overhead.ms_p50")
	add("count", "remserve.shed", "remserve.retried")
	add("ms", "cluster.rpc.start.ms_p50", "cluster.rpc.step.ms_p50", "cluster.rpc.step.ms_p90",
		"cluster.rpc.finish.ms_p50", "cluster.member.step.ms_p50", "cluster.wire.ms_p50",
		"cluster.barrier_skew.ms_p50", "cluster.merge.ms")
	add("KB", "cluster.rpc.step.resp_kb")
	add("count", "cluster.rpc.count", "cluster.rpc.retries", "cluster.timeline_events")
	for _, b := range cpuBuckets {
		add("frac", "cpu."+b+".share")
	}
	add("frac", "trace_overhead_frac")
	return out
}
