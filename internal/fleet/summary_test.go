package fleet

import (
	"math"
	"strings"
	"testing"

	"rem/internal/mobility"
	"rem/internal/policy"
	"rem/internal/trace"
	"rem/internal/transport"
)

// foldFixture is two finished UEs around a canceled straggler (nil):
// 3 handovers and 2 failures over 200 UE-seconds, one failure a
// coverage hole.
func foldFixture() []*mobility.Result {
	return []*mobility.Result{
		{
			Duration:  100,
			Handovers: []policy.HandoverRecord{{Time: 10, From: 0, To: 1}, {Time: 60, From: 1, To: 2}},
			Failures: []mobility.FailureEvent{
				{Time: 80, Serving: 2, Cause: mobility.CauseFeedback},
			},
			FeedbackDelays:   []float64{0.2, 0.4},
			ReportsDelivered: 50, ReportsLost: 2,
			CmdsDelivered: 3, CmdsLost: 1,
		},
		nil, // canceled straggler: must be skipped, not counted
		{
			Duration:  100,
			Handovers: []policy.HandoverRecord{{Time: 30, From: 5, To: 6}},
			Failures: []mobility.FailureEvent{
				{Time: 90, Serving: 6, Cause: mobility.CauseCoverageHole},
			},
			FeedbackDelays:   []float64{0.6},
			ReportsDelivered: 40, ReportsLost: 0,
			CmdsDelivered: 2, CmdsLost: 0,
		},
	}
}

// foldOutcomes converts the fixture the way SummarizeResults does:
// nil results are skipped, ids stay the replica indices.
func foldOutcomes() []UEOutcome {
	var out []UEOutcome
	for i, res := range foldFixture() {
		if res != nil {
			out = append(out, outcomeOf(i, res))
		}
	}
	return out
}

func foldSpec() Spec {
	return Spec{UEs: 3, Dataset: trace.BeijingShanghai, Mode: trace.REM, SpeedKmh: 330, DurationSec: 100, Seed: 1}
}

// reportValue returns the value column of the report row whose metric
// is metric, or "" when no row matches.
func reportValue(report, metric string) string {
	for _, line := range strings.Split(report, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), metric+"  "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// TestAssembleFleetTotals pins the fold's numbers: nil results are
// skipped without perturbing the others, ratios are exact, and every
// row of the reliability table reads the same totals.
func TestAssembleFleetTotals(t *testing.T) {
	res := assemble(foldSpec(), foldOutcomes(), 0, nil)
	sum := res.Summary
	if len(sum.PerUE) != 2 || sum.PerUE[0].UE != 0 || sum.PerUE[1].UE != 2 {
		t.Fatalf("per-UE = %+v, want UEs 0 and 2 (nil result skipped)", sum.PerUE)
	}
	if sum.Handovers != 3 || sum.Failures != 2 {
		t.Fatalf("handovers/failures = %d/%d", sum.Handovers, sum.Failures)
	}
	// 2 failures over 5 events; the ratio must be the exact quotient.
	if got, want := sum.FailureRatio, 2.0/5.0; got != want {
		t.Fatalf("failure ratio %v, want %v", got, want)
	}
	if got, want := sum.HOIntervalSec, 200.0/3.0; got != want {
		t.Fatalf("HO interval %v, want %v", got, want)
	}
	delays := []float64{0.2, 0.4, 0.6}
	var delaySum float64
	for _, d := range delays {
		delaySum += d
	}
	if got, want := sum.MeanFeedbackDelaySec, delaySum/3; got != want {
		t.Fatalf("mean feedback delay %v, want %v (sequential sum)", got, want)
	}
	if sum.Causes["feedback-delay/loss"] != 1 || sum.Causes["coverage-hole"] != 1 || len(sum.Causes) != 2 {
		t.Fatalf("causes = %v", sum.Causes)
	}
	if st := sum.PerUE[0]; st.FinalCell != 2 || st.Failures != 1 || st.FailureRatio != 1.0/3.0 {
		t.Fatalf("UE 0 stat = %+v", st)
	}
	for metric, want := range map[string]string{
		"concurrent UEs":            "2",
		"UE-seconds simulated":      "200",
		"total failure ratio":       "40.0%",
		"failure w/o coverage hole": "20.0%",
		"feedback-delay/loss":       "20.0%",
		"missed-cell":               "0.0%",
		"coverage-hole":             "20.0%",
		"mean feedback delay":       "400ms",
		"reports delivered/lost":    "90/2",
		"commands delivered/lost":   "5/1",
	} {
		if got := reportValue(res.Report, metric); got != want {
			t.Errorf("%s = %q, want %q\n%s", metric, got, want, res.Report)
		}
	}
}

// TestAssembleEmptyFleet: folding nothing yields zeros, never a
// division by zero, and still renders the table.
func TestAssembleEmptyFleet(t *testing.T) {
	res := assemble(foldSpec(), nil, 0, nil)
	sum := res.Summary
	if sum.Handovers != 0 || sum.FailureRatio != 0 || sum.HOIntervalSec != 0 || sum.MeanFeedbackDelaySec != 0 {
		t.Fatalf("empty fold not zero: %+v", sum)
	}
	if got := reportValue(res.Report, "concurrent UEs"); got != "0" {
		t.Fatalf("concurrent UEs = %q, want 0\n%s", got, res.Report)
	}
	if strings.Contains(res.Report, "NaN") {
		t.Fatalf("empty report renders NaN:\n%s", res.Report)
	}
}

// TestAssembleReportDeterministic: the same outcomes render the same
// bytes, headed by the spec title.
func TestAssembleReportDeterministic(t *testing.T) {
	r1 := assemble(foldSpec(), foldOutcomes(), 0, nil).Report
	r2 := assemble(foldSpec(), foldOutcomes(), 0, nil).Report
	if r1 != r2 {
		t.Fatal("report rendering not deterministic")
	}
	for _, want := range []string{specTitle(foldSpec()), "Fleet reliability", "total failure ratio", "40.0%"} {
		if !strings.Contains(r1, want) {
			t.Fatalf("report missing %q:\n%s", want, r1)
		}
	}
}

// TestOutcomeValidate has one row per rejected outcome shape; the
// merge must refuse each, since it would otherwise land in the
// merged report unchecked.
func TestOutcomeValidate(t *testing.T) {
	valid := func() UEOutcome { return outcomeOf(0, foldFixture()[0]) }
	if o := valid(); o.validate() != nil {
		t.Fatalf("valid outcome rejected: %v", o.validate())
	}
	cases := []struct {
		name string
		mut  func(*UEOutcome)
	}{
		{"negative duration", func(o *UEOutcome) { o.Duration = -1 }},
		{"NaN duration", func(o *UEOutcome) { o.Duration = math.NaN() }},
		{"infinite duration", func(o *UEOutcome) { o.Duration = math.Inf(1) }},
		{"negative handovers", func(o *UEOutcome) { o.Handovers = -1 }},
		{"final cell without handovers", func(o *UEOutcome) { o.Handovers = 0 }},
		{"negative final cell", func(o *UEOutcome) { o.FinalCell = -3 }},
		{"negative cause count", func(o *UEOutcome) { o.Causes["missed-cell"] = -1 }},
		{"zero cause count", func(o *UEOutcome) { o.Causes["missed-cell"] = 0 }},
		{"unknown cause", func(o *UEOutcome) { o.Causes["gremlins"] = 1 }},
		{"cause none", func(o *UEOutcome) { o.Causes["none"] = 1 }},
		{"negative reports delivered", func(o *UEOutcome) { o.ReportsDelivered = -1 }},
		{"negative reports lost", func(o *UEOutcome) { o.ReportsLost = -1 }},
		{"negative cmds delivered", func(o *UEOutcome) { o.CmdsDelivered = -1 }},
		{"negative cmds lost", func(o *UEOutcome) { o.CmdsLost = -1 }},
		{"negative reports fault-dropped", func(o *UEOutcome) { o.ReportsFaultDropped = -1 }},
		{"negative reports corrupted", func(o *UEOutcome) { o.ReportsCorrupted = -1 }},
		{"negative cmds fault-dropped", func(o *UEOutcome) { o.CmdsFaultDropped = -1 }},
		{"negative cmds corrupted", func(o *UEOutcome) { o.CmdsCorrupted = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := valid()
			tc.mut(&o)
			if err := o.validate(); err == nil {
				t.Fatal("validate accepted the outcome")
			}
			spec := Spec{UEs: 1, DurationSec: 100}
			if _, err := MergeShards(spec, []ShardSlice{{Outcomes: []UEOutcome{o}}}, nil, nil); err == nil {
				t.Fatal("MergeShards accepted the outcome")
			}
		})
	}
}

// TestMergeShardsRejectsMisplacedInput covers the shard-level checks:
// an outcome in another UE's slot, transport totals missing from an
// armed run, and negative admission or cell tallies.
func TestMergeShardsRejectsMisplacedInput(t *testing.T) {
	ok := outcomeOf(0, foldFixture()[0])
	cases := []struct {
		name  string
		spec  Spec
		shard ShardSlice
	}{
		{"wrong UE slot", Spec{UEs: 1, DurationSec: 100}, ShardSlice{Outcomes: []UEOutcome{outcomeOf(1, foldFixture()[0])}}},
		{"missing transport", Spec{UEs: 1, DurationSec: 100, Transport: &transport.Spec{}}, ShardSlice{Outcomes: []UEOutcome{ok}}},
		{"negative blocked", Spec{UEs: 1, DurationSec: 100}, ShardSlice{Outcomes: []UEOutcome{ok}, Blocked: -1}},
		{"negative cell tally", Spec{UEs: 1, DurationSec: 100}, ShardSlice{Outcomes: []UEOutcome{ok}, Cells: []CellStat{{Cell: 1, Failures: -2}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := MergeShards(tc.spec, []ShardSlice{tc.shard}, nil, nil); err == nil {
				t.Fatal("MergeShards accepted the shard")
			}
		})
	}
	if _, err := MergeShards(Spec{UEs: 1, DurationSec: 100}, []ShardSlice{{Outcomes: []UEOutcome{ok}}}, nil, nil); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
}
