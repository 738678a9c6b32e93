package main

import (
	"net/http"
	"strings"

	"rem"
	"rem/internal/obs"
)

// serverMetrics is the remserve service registry: every counter the
// hand-rolled /metrics JSON used to carry as a plain int now lives as
// an obs handle, so one registry feeds both the backward-compatible
// JSON view and the Prometheus text exposition. All writes happen
// under server.mu — that lock is the registry's single-writer
// guarantee — except during single-threaded boot recovery.
type serverMetrics struct {
	reg *obs.Registry

	started, completed, canceled, failed *obs.Counter
	shed, recovered, retried, resumed    *obs.Counter
	journalErrors, heartbeatMisses       *obs.Counter
	epochs, epochAllocs                  *obs.Counter
	epochWall                            *obs.Histogram

	activeRuns, activeUEs        *obs.Gauge
	handovers, failures, blocked *obs.Gauge
	lastEpochNs, lastEpochAllocs *obs.Gauge
	resumeEpoch                  *obs.Gauge
}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{reg: obs.NewRegistry()}
	// Each helper registers one metric and returns the step that binds
	// its handle once every metric is registered (a registry takes no
	// definitions after its first shard).
	counter := func(name, help string, h **obs.Counter) func(*obs.Shard) {
		m.reg.Counter(name, help)
		return func(sh *obs.Shard) { *h = sh.Counter(name) }
	}
	gauge := func(name, help string, h **obs.Gauge) func(*obs.Shard) {
		m.reg.Gauge(name, help)
		return func(sh *obs.Shard) { *h = sh.Gauge(name) }
	}
	histogram := func(name, help string, h **obs.Histogram) func(*obs.Shard) {
		m.reg.Histogram(name, help, epochBuckets)
		return func(sh *obs.Shard) { *h = sh.Histogram(name) }
	}
	// One row per metric; rows register in order, which is the
	// exposition order.
	binds := []func(*obs.Shard){
		counter("remserve_runs_started_total", "Fleet runs admitted.", &m.started),
		counter("remserve_runs_completed_total", "Fleet runs finished successfully.", &m.completed),
		counter("remserve_runs_canceled_total", "Fleet runs canceled by the client.", &m.canceled),
		counter("remserve_runs_failed_total", "Fleet runs that finished failed.", &m.failed),
		counter("remserve_runs_shed_total", "Run requests rejected at capacity (503).", &m.shed),
		counter("remserve_runs_recovered_total", "Interrupted runs surfaced as failed at boot.", &m.recovered),
		counter("remserve_runs_retried_total", "Transient run-start retries.", &m.retried),
		// Registry-only (kept out of the legacy JSON view, whose shape
		// is pinned by existing clients).
		counter("remserve_runs_resumed_total", "Sharded runs re-queued after a coordinator restart.", &m.resumed),
		counter("remserve_journal_errors_total", "Journal writes that failed (run unaffected, resume point degraded).", &m.journalErrors),
		counter("cluster_heartbeat_misses_total", "Member heartbeat ticks that failed after all in-tick retries.", &m.heartbeatMisses),
		gauge("remserve_run_resume_epoch", "Barrier the most recently resumed run continued from (0 = none).", &m.resumeEpoch),
		counter("remserve_epochs_total", "Fleet epoch barriers executed.", &m.epochs),
		counter("remserve_epoch_allocs_total", "Heap objects allocated across fleet epochs.", &m.epochAllocs),
		histogram("remserve_epoch_wall_ms", "Fleet epoch wall-clock latency (ms).", &m.epochWall),
		gauge("remserve_last_epoch_ns", "Wall-clock nanoseconds of the most recent fleet epoch.", &m.lastEpochNs),
		gauge("remserve_last_epoch_allocs", "Heap objects allocated during the most recent fleet epoch.", &m.lastEpochAllocs),
		gauge("remserve_active_runs", "Runs currently executing.", &m.activeRuns),
		gauge("remserve_active_ues", "UEs attached across executing runs.", &m.activeUEs),
		gauge("remserve_handovers", "Handovers across all runs (latest heartbeats).", &m.handovers),
		gauge("remserve_failures", "Failures across all runs (latest heartbeats).", &m.failures),
		gauge("remserve_blocked", "Admission-blocked handovers across all runs.", &m.blocked),
	}
	sh := m.reg.Shard(0)
	for _, bind := range binds {
		bind(sh)
	}
	return m
}

// view rebuilds the legacy JSON /metrics shape from a registry
// snapshot, so the JSON bytes clients already parse stay stable while
// the registry became the single source of truth.
func metricsViewFrom(snap *rem.MetricsSnapshot) metricsView {
	byName := make(map[string]rem.MetricSample, len(snap.Samples))
	for _, s := range snap.Samples {
		byName[s.Family] = s
	}
	val := func(name string) int { return int(byName[name].Value) }
	m := metricsView{
		ActiveRuns:    val("remserve_active_runs"),
		ActiveUEs:     val("remserve_active_ues"),
		RunsStarted:   val("remserve_runs_started_total"),
		RunsCompleted: val("remserve_runs_completed_total"),
		RunsCanceled:  val("remserve_runs_canceled_total"),
		RunsFailed:    val("remserve_runs_failed_total"),
		RunsShed:      val("remserve_runs_shed_total"),
		RunsRecovered: val("remserve_runs_recovered_total"),
		RunsRetried:   val("remserve_runs_retried_total"),
		Handovers:     val("remserve_handovers"),
		Failures:      val("remserve_failures"),
		Blocked:       val("remserve_blocked"),
		Epochs:        val("remserve_epochs_total"),
	}
	// The JSON histogram is per-bucket (last entry = overflow), the
	// snapshot's is cumulative: diff it back.
	h := byName["remserve_epoch_wall_ms"]
	var prev int64
	for _, b := range h.Buckets {
		m.EpochWallHist = append(m.EpochWallHist, bucketCount{LeMs: b.Le, Count: int(b.Count - prev)})
		prev = b.Count
	}
	m.EpochWallHist = append(m.EpochWallHist, bucketCount{Count: int(h.Count - prev)})
	return m
}

// wantsPrometheus reports whether the request negotiates the
// Prometheus text exposition. JSON stays the default so existing
// scrapers (and plain curl) keep getting the legacy shape.
func wantsPrometheus(req *http.Request) bool {
	accept := req.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}
