package fleet

import (
	"fmt"
	"math"

	"rem/internal/eval"
	"rem/internal/mobility"
	"rem/internal/sim"
	"rem/internal/trace"
	"rem/internal/transport"
)

// Event types streamed out of a fleet run.
const (
	EventHandover = "handover"
	EventFailure  = "failure"
	EventBlocked  = "blocked"  // admission deferred a handover
	EventReattach = "reattach" // post-outage re-establishment
)

// Event is one per-UE occurrence, emitted in deterministic
// (epoch, time, UE) order. It is the NDJSON record remserve streams.
type Event struct {
	UE    int     `json:"ue"`
	Time  float64 `json:"t"`
	Type  string  `json:"type"`
	From  int     `json:"from,omitempty"`
	To    int     `json:"to,omitempty"`
	Cause string  `json:"cause,omitempty"`
}

// UEStat summarizes one UE's run.
type UEStat struct {
	UE           int     `json:"ue"`
	Seed         int64   `json:"seed"`
	Handovers    int     `json:"handovers"`
	Failures     int     `json:"failures"`
	FailureRatio float64 `json:"failure_ratio"`
	FinalCell    int     `json:"final_cell"`
	// Transport is the UE's transport-plane totals; nil (omitted) when
	// the plane is disarmed, keeping legacy summaries byte-identical.
	Transport *transport.Totals `json:"transport,omitempty"`
}

// CellStat summarizes one cell's share of the fleet.
type CellStat struct {
	Cell          int `json:"cell"`
	Channel       int `json:"channel"`
	Attaches      int `json:"attaches"` // initial attaches + handovers-in + reattaches
	HandoversIn   int `json:"handovers_in"`
	Failures      int `json:"failures"`
	Blocked       int `json:"blocked,omitempty"`
	PeakAttached  int `json:"peak_attached"`
	FinalAttached int `json:"final_attached"`
}

// Summary is the machine-readable result shared by the fleet engine,
// remserve and the CLIs' -json mode, so service and CLI outputs are
// directly diffable.
type Summary struct {
	UEs         int     `json:"ues"`
	Dataset     string  `json:"dataset"`
	Mode        string  `json:"mode"`
	SpeedKmh    float64 `json:"speed_kmh"`
	DurationSec float64 `json:"duration_sec"`
	Seed        int64   `json:"seed"`

	Handovers            int            `json:"handovers"`
	Failures             int            `json:"failures"`
	Blocked              int            `json:"blocked,omitempty"`
	FailureRatio         float64        `json:"failure_ratio"`
	HOIntervalSec        float64        `json:"avg_handover_interval_sec"`
	MeanFeedbackDelaySec float64        `json:"mean_feedback_delay_sec"`
	Causes               map[string]int `json:"failure_causes"`
	// FaultLosses counts signaling messages lost to injected transport
	// faults (drop + fatal corruption), fleet-wide. Omitted when the
	// fault plane is disarmed, keeping legacy summaries byte-identical.
	FaultLosses int `json:"fault_losses,omitempty"`
	// Transport is the fleet-wide transport-plane aggregate; nil
	// (omitted) when the plane is disarmed.
	Transport *TransportSummary `json:"transport,omitempty"`

	PerUE []UEStat   `json:"per_ue"`
	Cells []CellStat `json:"cells,omitempty"`
}

// Result is a completed fleet run: the machine-readable summary plus
// the human-readable reliability report rendered through the eval
// machinery.
type Result struct {
	Summary Summary `json:"summary"`
	Report  string  `json:"report"`
}

// UEOutcome is everything the fleet fold reads of one UE's finished
// run. It is also the cluster's finish-response record, so every field
// is JSON-exact: counts are ints, float64 round-trips bit-exactly, and
// FeedbackDelays ships the full ordered slice because the fold sums it
// sequentially in global UE order — a partial sum would reassociate
// the addition.
type UEOutcome struct {
	UE        int     `json:"ue"` // global id
	Duration  float64 `json:"duration"`
	Handovers int     `json:"handovers,omitempty"`
	// FinalCell is the last handover's target (0 when none).
	FinalCell int `json:"final_cell,omitempty"`
	// Causes maps failure-cause names to counts (Table 2 taxonomy).
	Causes         map[string]int `json:"causes,omitempty"`
	FeedbackDelays []float64      `json:"feedback_delays,omitempty"`

	ReportsDelivered int `json:"reports_delivered,omitempty"`
	ReportsLost      int `json:"reports_lost,omitempty"`
	CmdsDelivered    int `json:"cmds_delivered,omitempty"`
	CmdsLost         int `json:"cmds_lost,omitempty"`

	ReportsFaultDropped int `json:"reports_fault_dropped,omitempty"`
	ReportsCorrupted    int `json:"reports_corrupted,omitempty"`
	CmdsFaultDropped    int `json:"cmds_fault_dropped,omitempty"`
	CmdsCorrupted       int `json:"cmds_corrupted,omitempty"`

	// Transport is the UE's transport-plane totals, present exactly
	// when the run's spec arms the plane.
	Transport *transport.Totals `json:"transport,omitempty"`
}

// outcomeOf reduces one finalized runner result to its outcome; ue is
// the global id. The outcome shares res's FeedbackDelays slice, which
// a finished runner never appends to again.
func outcomeOf(ue int, res *mobility.Result) UEOutcome {
	o := UEOutcome{
		UE:                  ue,
		Duration:            res.Duration,
		Handovers:           len(res.Handovers),
		FeedbackDelays:      res.FeedbackDelays,
		ReportsDelivered:    res.ReportsDelivered,
		ReportsLost:         res.ReportsLost,
		CmdsDelivered:       res.CmdsDelivered,
		CmdsLost:            res.CmdsLost,
		ReportsFaultDropped: res.ReportsFaultDropped,
		ReportsCorrupted:    res.ReportsCorrupted,
		CmdsFaultDropped:    res.CmdsFaultDropped,
		CmdsCorrupted:       res.CmdsCorrupted,
	}
	if n := len(res.Handovers); n > 0 {
		o.FinalCell = res.Handovers[n-1].To
	}
	for _, f := range res.Failures {
		if o.Causes == nil {
			o.Causes = make(map[string]int, 4)
		}
		o.Causes[f.Cause.String()]++
	}
	return o
}

// failures is the UE's failure count over every cause.
func (o *UEOutcome) failures() int {
	n := 0
	for _, c := range o.Causes {
		n += c
	}
	return n
}

// validate rejects an outcome no finished run can produce: negative
// counts or duration, an unknown or zero-count failure cause, a final
// cell without a handover. It is the one check on outcomes that
// crossed a wire.
func (o *UEOutcome) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("fleet: ue %d: "+format, append([]any{o.UE}, args...)...)
	}
	if !(o.Duration >= 0) || math.IsInf(o.Duration, 1) {
		return bad("duration %g", o.Duration)
	}
	if o.Handovers < 0 {
		return bad("negative handover count %d", o.Handovers)
	}
	if o.FinalCell < 0 || (o.FinalCell != 0 && o.Handovers == 0) {
		return bad("final cell %d after %d handovers", o.FinalCell, o.Handovers)
	}
	for name, n := range o.Causes {
		if n < 1 {
			return bad("count %d for cause %q", n, name)
		}
		if !knownCause(name) {
			return bad("unknown failure cause %q", name)
		}
	}
	for _, n := range []int{o.ReportsDelivered, o.ReportsLost, o.CmdsDelivered, o.CmdsLost,
		o.ReportsFaultDropped, o.ReportsCorrupted, o.CmdsFaultDropped, o.CmdsCorrupted} {
		if n < 0 {
			return bad("negative signaling count %d", n)
		}
	}
	return nil
}

// knownCause reports whether name is one of mobility's failure causes.
func knownCause(name string) bool {
	for c := mobility.CauseFeedback; c <= mobility.CauseCoverageHole; c++ {
		if c.String() == name {
			return true
		}
	}
	return false
}

// SummarizeResults reduces independent per-replica mobility results
// (indexed by replica/UE) into the shared Summary shape. It is what
// remsim's -json mode uses, with seeds derived by sim.ReplicaSeed —
// the same schedule the fleet engine uses — so a K-replica CLI run and
// a K-UE fleet run produce structurally identical JSON. Nil results
// count toward UEs but are skipped everywhere else.
func SummarizeResults(ds trace.DatasetID, mode trace.Mode, speedKmh, durationSec float64,
	seed int64, results []*mobility.Result,
) *Summary {
	outcomes := make([]UEOutcome, 0, len(results))
	for i, res := range results {
		if res != nil {
			outcomes = append(outcomes, outcomeOf(i, res))
		}
	}
	spec := Spec{
		UEs: len(results), Dataset: ds, Mode: mode,
		SpeedKmh: speedKmh, DurationSec: durationSec, Seed: seed,
	}
	return &assemble(spec, outcomes, 0, nil).Summary
}

// assemble is the fleet fold: it reduces per-UE outcomes (global UE
// order) plus the admission and dense per-cell tallies into the
// Summary and the rendered report — the "Fleet reliability" table, and
// the "Transport plane" table when the spec arms it. Every
// floating-point sum runs sequentially in UE order, so a merged
// cluster run folds exactly as a single process does. Cells with
// Cell == 0 (undeployed IDs) are skipped.
func assemble(spec Spec, outcomes []UEOutcome, blocked int, cells []CellStat) *Result {
	sum := Summary{
		UEs:         spec.UEs,
		Dataset:     trace.Describe(spec.Dataset).ID.String(),
		Mode:        spec.Mode.String(),
		SpeedKmh:    spec.SpeedKmh,
		DurationSec: spec.DurationSec,
		Seed:        spec.Seed,
		Blocked:     blocked,
		Causes:      make(map[string]int),
	}
	var duration, delaySum float64
	var delayN, reportsOK, reportsLost, cmdsOK, cmdsLost int
	for i := range outcomes {
		o := &outcomes[i]
		st := UEStat{UE: o.UE, Seed: sim.ReplicaSeed(spec.Seed, o.UE),
			Handovers: o.Handovers, Failures: o.failures(), FinalCell: o.FinalCell}
		if events := st.Handovers + st.Failures; events > 0 {
			st.FailureRatio = float64(st.Failures) / float64(events)
		}
		if spec.Transport != nil {
			st.Transport = o.Transport
		}
		sum.PerUE = append(sum.PerUE, st)
		sum.Handovers += st.Handovers
		sum.Failures += st.Failures
		duration += o.Duration
		for name, n := range o.Causes {
			sum.Causes[name] += n
		}
		for _, d := range o.FeedbackDelays {
			delaySum += d
			delayN++
		}
		sum.FaultLosses += o.ReportsFaultDropped + o.ReportsCorrupted + o.CmdsFaultDropped + o.CmdsCorrupted
		reportsOK += o.ReportsDelivered
		reportsLost += o.ReportsLost
		cmdsOK += o.CmdsDelivered
		cmdsLost += o.CmdsLost
	}
	events := sum.Handovers + sum.Failures
	share := func(n int) float64 {
		if events == 0 {
			return 0
		}
		return float64(n) / float64(events)
	}
	sum.FailureRatio = share(sum.Failures)
	if sum.Handovers > 0 {
		sum.HOIntervalSec = duration / float64(sum.Handovers)
	}
	if delayN > 0 {
		sum.MeanFeedbackDelaySec = delaySum / float64(delayN)
	}
	for _, cs := range cells {
		if cs.Cell != 0 {
			sum.Cells = append(sum.Cells, cs)
		}
	}

	pct := func(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
	causeRow := func(c mobility.FailureCause) []string {
		return []string{"  " + c.String(), pct(share(sum.Causes[c.String()]))}
	}
	rep := &eval.Report{ID: "fleet", Title: specTitle(spec), Tables: []eval.Table{{
		Title:   "Fleet reliability",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"concurrent UEs", fmt.Sprintf("%d", len(outcomes))},
			{"UE-seconds simulated", fmt.Sprintf("%.0f", duration)},
			{"handovers", fmt.Sprintf("%d", sum.Handovers)},
			{"failures", fmt.Sprintf("%d", sum.Failures)},
			{"avg handover interval", fmt.Sprintf("%.1fs", sum.HOIntervalSec)},
			{"total failure ratio", pct(sum.FailureRatio)},
			{"failure w/o coverage hole", pct(share(sum.Failures - sum.Causes[mobility.CauseCoverageHole.String()]))},
			causeRow(mobility.CauseFeedback),
			causeRow(mobility.CauseMissedCell),
			causeRow(mobility.CauseHOCmdLoss),
			causeRow(mobility.CauseCoverageHole),
			{"mean feedback delay", fmt.Sprintf("%.0fms", 1000*sum.MeanFeedbackDelaySec)},
			{"reports delivered/lost", fmt.Sprintf("%d/%d", reportsOK, reportsLost)},
			{"commands delivered/lost", fmt.Sprintf("%d/%d", cmdsOK, cmdsLost)},
		},
	}}}

	if spec.Transport != nil && len(outcomes) > 0 {
		tspec := spec.Transport.Defaulted()
		ts := &TransportSummary{Controller: tspec.Controller, Workload: tspec.Workload}
		var goodputSum, rateSum float64
		for i := range outcomes {
			t := outcomes[i].Transport
			ts.DeliveredMbit += t.DeliveredMbit
			goodputSum += t.GoodputMbps
			rateSum += t.MeanRateMbps
			ts.DownSec += t.DownSec
			ts.Stalls += t.Stalls
			ts.StallSec += t.StallSec
			ts.Rebuffers += t.Rebuffers
			ts.RebufferSec += t.RebufferSec
			ts.WebCompleted += t.WebCompleted
		}
		n := float64(len(outcomes))
		ts.MeanGoodputMbps = goodputSum / n
		ts.MeanRateMbps = rateSum / n
		sum.Transport = ts
		rep.Tables = append(rep.Tables, transportTable(ts))
	}
	return &Result{Summary: sum, Report: rep.Render()}
}
