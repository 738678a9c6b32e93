package eval

import (
	"fmt"

	"rem/internal/mobility"
	"rem/internal/obs"
	"rem/internal/par"
	"rem/internal/policy"
	"rem/internal/trace"
	"rem/internal/transport"
)

// Agg aggregates mobility replays over several seeds for one
// (dataset, speed bucket, mode) cell.
type Agg struct {
	Dataset trace.DatasetID
	Bucket  [2]float64
	Mode    trace.Mode

	Handovers int
	Failures  int
	Duration  float64

	HOIntervalSec float64
	FailureRatio  float64
	// CauseRatio is per-cause failures over handover events (the
	// paper's Table 2 percentage-of-events view).
	CauseRatio map[mobility.FailureCause]float64
	// RatioNoHoles excludes coverage-hole failures (Table 5's
	// "failure w/o coverage hole" row).
	RatioNoHoles float64

	// Conflict-loop statistics (policy-attributed loops only).
	ConflictLoops     int
	LoopEverySec      float64
	AvgHOsPerLoop     float64
	AvgDisruptionSec  float64
	IntraLoopFrac     float64
	HOsInConflictFrac float64

	FeedbackDelays      []float64
	FeedbackDelaysInter []float64
	ULFirstBLER         []float64
	ULBLERAt            []float64
	DLFirstBLER         []float64
	DLBLERAt            []float64
	FailureTimes        []float64
	SNRTrace            []float64
	SNRTraceAt          []float64
	Outages             []transport.Outage
	GapActiveFrac       float64
	Signaling           int
	// FaultLosses counts signaling messages lost to injected transport
	// faults (zero whenever Config.Faults is disarmed).
	FaultLosses int
}

// replicaOut is one seed's replay plus its policy-attributed conflict
// loops, produced on a worker and reduced on the caller's goroutine.
type replicaOut struct {
	res   *mobility.Result
	loops []policy.Loop
}

// runCell executes Seeds replicas in parallel (bounded by cfg.Workers)
// and aggregates them in seed order, so the reduction — including its
// floating-point accumulation order — matches a serial run exactly.
// Each replica is fully self-contained: its seed is derived from the
// replica index, never from a shared stream.
func runCell(cfg Config, ds trace.Dataset, bucket [2]float64, mode trace.Mode) (*Agg, error) {
	cfg = cfg.normalized()
	agg := &Agg{
		Dataset:    ds.ID,
		Bucket:     bucket,
		Mode:       mode,
		CauseRatio: make(map[mobility.FailureCause]float64),
	}
	speed := trace.BucketSpeedKmh(bucket)
	reps, err := par.IndexedMap(cfg.Workers, cfg.Seeds, func(s int) (replicaOut, error) {
		built, err := trace.Build(trace.BuildConfig{
			Dataset:  ds,
			SpeedKmh: speed,
			Mode:     mode,
			Duration: cfg.DurationSec,
			Seed:     cfg.BaseSeed + int64(s)*7919,
			Faults:   cfg.Faults,
		})
		if err != nil {
			return replicaOut{}, fmt.Errorf("eval: build %v/%v: %w", ds.ID, mode, err)
		}
		// Telemetry scope per replica index: single-writer (this worker)
		// for the replica's whole life, merged deterministically later.
		var scope *obs.UEScope
		if cfg.Telemetry != nil {
			scope = cfg.Telemetry.Scope(cfg.telemetryBase + s)
			built.Scenario.Obs = scope
		}
		res, err := mobility.Run(built.Streams, built.Scenario)
		if err != nil {
			return replicaOut{}, fmt.Errorf("eval: run %v/%v: %w", ds.ID, mode, err)
		}
		transport.ObserveTCPStalls(scope, res.Outages)
		loops := policy.LoopDetector{}.Detect(res.Handovers)
		return replicaOut{
			res:   res,
			loops: policy.ConflictLoops(loops, built.Policies, policy.DefaultMetricRange()),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	totalLoopHOs := 0
	holeFails := 0
	var loopHOSum, loopDisrSum float64
	intraLoops := 0
	var gapSec float64
	for s, rep := range reps {
		res := rep.res
		agg.Handovers += len(res.Handovers)
		agg.Failures += len(res.Failures)
		agg.Duration += res.Duration
		agg.Signaling += trace.SignalingOverheadEstimate(res)
		agg.FaultLosses += res.FaultLosses()
		gapSec += res.GapActiveSec
		for cause, n := range res.CauseCounts() {
			agg.CauseRatio[cause] += float64(n)
			if cause == mobility.CauseCoverageHole {
				holeFails += n
			}
		}
		agg.FeedbackDelays = append(agg.FeedbackDelays, res.FeedbackDelays...)
		agg.FeedbackDelaysInter = append(agg.FeedbackDelaysInter, res.FeedbackDelaysInter...)
		// Offset per-replica times so samples stay matched to their
		// replica's failures.
		off := float64(s) * cfg.DurationSec * 10
		agg.ULFirstBLER = append(agg.ULFirstBLER, res.FeedbackFirstBLER...)
		for _, tt := range res.FeedbackBLERAt {
			agg.ULBLERAt = append(agg.ULBLERAt, tt+off)
		}
		agg.DLFirstBLER = append(agg.DLFirstBLER, res.CmdFirstBLER...)
		for _, tt := range res.CmdBLERAt {
			agg.DLBLERAt = append(agg.DLBLERAt, tt+off)
		}
		for _, f := range res.Failures {
			agg.FailureTimes = append(agg.FailureTimes, f.Time+off)
		}
		for i, v := range res.SNRTrace {
			agg.SNRTrace = append(agg.SNRTrace, v)
			agg.SNRTraceAt = append(agg.SNRTraceAt, float64(i)*res.SNRTraceStep+off)
		}
		agg.Outages = append(agg.Outages, res.Outages...)

		agg.ConflictLoops += len(rep.loops)
		for _, l := range rep.loops {
			totalLoopHOs += l.Handovers
			loopHOSum += float64(l.Handovers)
			loopDisrSum += l.Disruption
			if l.IntraFrequency {
				intraLoops++
			}
		}
	}
	events := agg.Handovers + agg.Failures
	if events > 0 {
		agg.FailureRatio = float64(agg.Failures) / float64(events)
		agg.RatioNoHoles = float64(agg.Failures-holeFails) / float64(events)
		for cause := range agg.CauseRatio {
			agg.CauseRatio[cause] /= float64(events)
		}
		agg.HOsInConflictFrac = float64(totalLoopHOs) / float64(events)
	}
	if agg.Handovers > 0 {
		agg.HOIntervalSec = agg.Duration / float64(agg.Handovers)
	}
	if agg.ConflictLoops > 0 {
		agg.LoopEverySec = agg.Duration / float64(agg.ConflictLoops)
		agg.AvgHOsPerLoop = loopHOSum / float64(agg.ConflictLoops)
		agg.AvgDisruptionSec = loopDisrSum / float64(agg.ConflictLoops)
		agg.IntraLoopFrac = float64(intraLoops) / float64(agg.ConflictLoops)
	}
	if agg.Duration > 0 {
		agg.GapActiveFrac = gapSec / agg.Duration
	}
	return agg, nil
}

// runCells evaluates many independent (dataset, bucket, mode) cells in
// parallel and returns the aggregates in argument order. The per-cell
// seed schedule is identical to calling runCell sequentially.
func runCells(cfg Config, cells []cellSpec) ([]*Agg, error) {
	seeds := cfg.normalized().Seeds
	return par.IndexedMap(cfg.Workers, len(cells), func(i int) (*Agg, error) {
		// The outer fan-out already provides cell-level parallelism;
		// run each cell's replicas serially to avoid multiplying the
		// pool width.
		inner := cfg
		inner.Workers = 1
		// Distinct telemetry scopes per cell replica (cell-major).
		inner.telemetryBase = cfg.telemetryBase + i*seeds
		return runCell(inner, cells[i].ds, cells[i].bucket, cells[i].mode)
	})
}

// cellSpec names one runCell invocation for a parallel batch.
type cellSpec struct {
	ds     trace.Dataset
	bucket [2]float64
	mode   trace.Mode
}

// reduction is the paper's ε = (K_legacy − K_rem)/K_rem on ratios.
func reduction(legacy, rem float64) string {
	if rem <= 0 {
		if legacy <= 0 {
			return "0"
		}
		return "inf"
	}
	return times((legacy - rem) / rem)
}
