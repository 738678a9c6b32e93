package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"rem/internal/fault"
	"rem/internal/mobility"
	"rem/internal/par"
	"rem/internal/trace"
)

// TestFleetWorkerInvariance1000UE is the acceptance regression: a
// 1000-UE fleet must produce byte-identical aggregate output at
// -workers 1 and -workers N.
func TestFleetWorkerInvariance1000UE(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-UE fleet run skipped in -short mode")
	}
	spec := Spec{
		UEs: 1000, Dataset: trace.BeijingShanghai, Mode: trace.Legacy,
		SpeedKmh: 330, DurationSec: 5, Seed: 7,
		CellCapacity: 40, SpreadMarginDB: 3,
	}
	run := func(workers int) ([]byte, string, []Event) {
		s := spec
		s.Workers = workers
		var evs []Event
		res, err := RunWithOptions(context.Background(), s, Options{
			Observer: func(ev Event) { evs = append(evs, ev) },
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		js, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return js, res.Report, evs
	}
	js1, rep1, evs1 := run(1)
	js8, rep8, evs8 := run(8)
	if string(js1) != string(js8) {
		t.Fatalf("summary JSON differs between workers=1 and workers=8:\n%s\nvs\n%s", js1, js8)
	}
	if rep1 != rep8 {
		t.Fatalf("rendered report differs between workers=1 and workers=8:\n%s\nvs\n%s", rep1, rep8)
	}
	if !reflect.DeepEqual(evs1, evs8) {
		t.Fatalf("event streams differ: %d vs %d events", len(evs1), len(evs8))
	}
	if len(evs1) == 0 {
		t.Fatal("expected a 1000-UE fleet to produce events")
	}
}

func TestFleetSmallWorkerInvariance(t *testing.T) {
	// Fast variant that always runs (also under -short): 40 UEs, both
	// REM and legacy modes.
	for _, mode := range []trace.Mode{trace.Legacy, trace.REM} {
		var got []string
		for _, workers := range []int{1, 4} {
			res, err := Run(context.Background(), Spec{
				UEs: 40, Dataset: trace.BeijingTaiyuan, Mode: mode,
				SpeedKmh: 300, DurationSec: 4, Seed: 3, Workers: workers,
			})
			if err != nil {
				t.Fatalf("mode=%v workers=%d: %v", mode, workers, err)
			}
			js, _ := json.Marshal(res)
			got = append(got, string(js))
		}
		if got[0] != got[1] {
			t.Fatalf("mode=%v: results differ across worker counts", mode)
		}
	}
}

// TestFleetMatchesSingleUERuns asserts no state bleed between
// concurrent sessions: with unlimited admission, each UE of a fleet
// must reproduce exactly the handover/failure sequence of a solo
// mobility run built from the same shared world and UE index.
func TestFleetMatchesSingleUERuns(t *testing.T) {
	const ues = 8
	spec := Spec{
		UEs: ues, Dataset: trace.BeijingShanghai, Mode: trace.REM,
		SpeedKmh: 330, DurationSec: 6, Seed: 11, Workers: 4,
	}
	eng, err := NewEngine(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.runAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	shared, err := trace.BuildFleetShared(trace.FleetConfig{BuildConfig: trace.BuildConfig{
		Dataset:  trace.Describe(spec.Dataset),
		SpeedKmh: spec.SpeedKmh, Mode: spec.Mode,
		Duration: spec.DurationSec, Seed: spec.Seed,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for ue := 0; ue < ues; ue++ {
		built, err := shared.BuildUE(ue)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := mobility.Run(built.Streams, built.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Summary.PerUE[ue]
		if st.Handovers != len(solo.Handovers) || st.Failures != len(solo.Failures) {
			t.Fatalf("UE %d: fleet %d HOs/%d fails, solo %d/%d — state bled between sessions",
				ue, st.Handovers, st.Failures, len(solo.Handovers), len(solo.Failures))
		}
		fleetRes := eng.runners[ue].Result()
		if !reflect.DeepEqual(fleetRes.Handovers, solo.Handovers) {
			t.Fatalf("UE %d: handover sequences diverge:\nfleet %v\nsolo  %v",
				ue, fleetRes.Handovers, solo.Handovers)
		}
		if !reflect.DeepEqual(fleetRes.Failures, solo.Failures) {
			t.Fatalf("UE %d: failure sequences diverge", ue)
		}
	}
}

func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	epochs := 0
	_, err := RunWithOptions(ctx, Spec{
		UEs: 30, Dataset: trace.BeijingShanghai, Mode: trace.Legacy,
		SpeedKmh: 330, DurationSec: 600, Seed: 1, Workers: 4, EpochSec: 0.2,
	}, Options{Progress: func(Progress) {
		epochs++
		if epochs == 3 {
			cancel()
		}
	}})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if epochs >= 10 {
		t.Fatalf("run kept stepping after cancellation (%d epochs)", epochs)
	}
}

func TestFleetAdmissionCapacityRespected(t *testing.T) {
	// A tight per-cell capacity must produce admission deferrals. The
	// fleet is spread over ~4 cells (spacing is 1500m), so every cell
	// holds ~15 residents — far above capacity 3 — and each handover
	// attempt targets an over-capacity cell ahead.
	const capacity = 3
	maxLoad := 0
	var blocked int
	spec := Spec{
		UEs: 60, Dataset: trace.BeijingShanghai, Mode: trace.Legacy,
		SpeedKmh: 330, DurationSec: 10, Seed: 5, Workers: 4,
		CellCapacity: capacity, StartSpreadM: 6000,
	}
	var eng *Engine
	eng, err := NewEngine(context.Background(), spec, Options{
		Observer: func(ev Event) {
			if ev.Type == EventBlocked {
				blocked++
			}
		},
		Progress: func(Progress) {
			for id := range eng.cellStats {
				if eng.cellStats[id].Cell != 0 && eng.loads[id] > maxLoad {
					maxLoad = eng.loads[id]
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.runAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if blocked == 0 {
		t.Fatal("expected admission deferrals with 60 UEs and capacity 3")
	}
	if res.Summary.Blocked != blocked {
		t.Fatalf("summary blocked = %d, observer saw %d", res.Summary.Blocked, blocked)
	}
	// Capacity only gates handover admission, not initial attach or
	// post-outage reattach, so loads can legitimately exceed the cap —
	// but handovers must never push a cell above capacity + initial
	// residents. A loose sanity bound suffices: the busiest cell stays
	// far below the unconstrained pile-up of 60.
	if maxLoad >= 60 {
		t.Fatalf("admission had no effect: one cell holds %d of 60 UEs", maxLoad)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		field string // "" means the spec must validate
	}{
		{name: "zero UEs", spec: Spec{UEs: 0, DurationSec: 1}, field: "UEs"},
		{name: "negative UEs", spec: Spec{UEs: -3, DurationSec: 1}, field: "UEs"},
		{name: "zero duration", spec: Spec{UEs: 1}, field: "DurationSec"},
		{name: "negative duration", spec: Spec{UEs: 1, DurationSec: -2}, field: "DurationSec"},
		{name: "negative workers", spec: Spec{UEs: 4, DurationSec: 1, Workers: -1}, field: "Workers"},
		{name: "workers exceed UEs", spec: Spec{UEs: 4, DurationSec: 1, Workers: 5}, field: "Workers"},
		{name: "workers equal UEs", spec: Spec{UEs: 4, DurationSec: 1, Workers: 4}},
		{name: "negative UE offset", spec: Spec{UEs: 4, DurationSec: 1, UEOffset: -1}, field: "UEOffset"},
		{name: "UE offset overflows", spec: Spec{UEs: 2, DurationSec: 1, UEOffset: math.MaxInt - 1}, field: "UEOffset"},
		{name: "UE offset at boundary", spec: Spec{UEs: 2, DurationSec: 1, UEOffset: math.MaxInt - 2}},
		{name: "sharded UE range", spec: Spec{UEs: 250, DurationSec: 1, UEOffset: 750}},
		{name: "minimal valid", spec: Spec{UEs: 1, DurationSec: 0.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("Validate() = %v (%T), want *SpecError", err, err)
			}
			if se.Field != tc.field {
				t.Fatalf("SpecError.Field = %q, want %q", se.Field, tc.field)
			}
			if se.Error() == "" {
				t.Fatal("empty error message")
			}
		})
	}
	// The run entry points must reject, not clamp.
	if _, err := Run(context.Background(), Spec{UEs: 2, DurationSec: 1, Workers: 8}); err == nil {
		t.Fatal("Run accepted workers > UEs")
	}
	var se *SpecError
	if _, err := NewEngine(context.Background(), Spec{UEs: 0, DurationSec: 1}, Options{}); !errors.As(err, &se) {
		t.Fatalf("NewEngine error %v is not a *SpecError", err)
	}
}

func TestSummarizeResultsShape(t *testing.T) {
	sum := SummarizeResults(trace.BeijingShanghai, trace.REM, 330, 10, 1, []*mobility.Result{
		{Duration: 10}, nil, {Duration: 10},
	})
	// A nil entry (canceled replica) counts toward UEs but has no
	// per-UE row.
	if sum.UEs != 3 || sum.Dataset != "beijing-shanghai" || sum.Mode != "rem" {
		t.Fatalf("bad summary header: %+v", sum)
	}
	if len(sum.PerUE) != 2 || sum.PerUE[0].UE != 0 || sum.PerUE[1].UE != 2 {
		t.Fatalf("per-UE rows %+v, want UEs 0 and 2", sum.PerUE)
	}
	if sum.PerUE[0].Seed == sum.PerUE[1].Seed {
		t.Fatalf("per-UE seeds not distinct: %+v", sum.PerUE)
	}
}

// TestFleetEpochWorkerPanicSurvives proves the serving-robustness
// contract: a panic inside one UE's epoch step surfaces as an error
// carrying the stack — it does not kill the process — and the engine
// is immediately reusable for a healthy run.
func TestFleetEpochWorkerPanicSurvives(t *testing.T) {
	spec := Spec{
		UEs: 8, Dataset: trace.BeijingTaiyuan, Mode: trace.Legacy,
		SpeedKmh: 300, DurationSec: 3, Seed: 3, Workers: 4,
	}
	stepHook = func(ue int) {
		if ue == 5 {
			panic("injected epoch-worker fault")
		}
	}
	defer func() { stepHook = nil }()
	_, err := Run(context.Background(), spec)
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %T (%v), want *par.PanicError", err, err)
	}
	if pe.Value != "injected epoch-worker fault" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}

	// The same process must run the next fleet cleanly.
	stepHook = nil
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("healthy run after panic failed: %v", err)
	}
	if res.Summary.Handovers == 0 {
		t.Error("healthy run produced no handovers")
	}

	// And the faulty run must not have poisoned determinism: a repeat
	// matches byte for byte.
	res2, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res.Summary)
	b, _ := json.Marshal(res2.Summary)
	if string(a) != string(b) {
		t.Error("summaries differ across identical runs after a panic")
	}
}

// TestFleetFaultPlanDeterminism: a fault-armed fleet must stay
// byte-identical across worker counts, and the plan must actually
// inject (non-zero fault losses).
func TestFleetFaultPlanDeterminism(t *testing.T) {
	plan := &fault.Plan{
		Bursts: []fault.Burst{{Start: 0.5, End: 3.5, PGoodToBad: 0.4, PBadToGood: 0.2, LossBad: 0.95}},
		Signaling: []fault.SignalingFault{
			{Start: 0, End: 4, DropProb: 0.2, CorruptProb: 0.2, DelaySec: 0.02},
		},
	}
	var got []string
	var losses int
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), Spec{
			UEs: 24, Dataset: trace.BeijingShanghai, Mode: trace.REM,
			SpeedKmh: 330, DurationSec: 4, Seed: 11, Workers: workers,
			Faults: plan,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		js, _ := json.Marshal(res)
		got = append(got, string(js))
		losses = res.Summary.FaultLosses
	}
	if got[0] != got[1] {
		t.Fatal("fault-armed fleet differs across worker counts")
	}
	if losses == 0 {
		t.Error("fault plan injected no losses")
	}
}

// TestFleetFaultsDisarmedIdentical: Spec.Faults = nil and an empty
// plan must both reproduce the unfaulted fleet byte for byte.
func TestFleetFaultsDisarmedIdentical(t *testing.T) {
	spec := Spec{
		UEs: 10, Dataset: trace.BeijingTaiyuan, Mode: trace.Legacy,
		SpeedKmh: 300, DurationSec: 3, Seed: 5,
	}
	base, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = &fault.Plan{Name: "empty"}
	empty, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(base)
	b, _ := json.Marshal(empty)
	if string(a) != string(b) {
		t.Fatal("empty fault plan changed the fleet output")
	}
}
