package fleet

import (
	"context"
	"runtime"
	"testing"

	"rem/internal/obs"
	"rem/internal/sim"
	"rem/internal/trace"
	"rem/internal/transport"
)

// epochSpec pins the epoch workload shape at a UE scale.
func epochSpec(ues int, epochSec, durationSec float64) Spec {
	return Spec{
		UEs: ues, Dataset: trace.BeijingShanghai, Mode: trace.REM,
		DurationSec: durationSec, Seed: 1, EpochSec: epochSec,
	}
}

// epochCase is one epoch workload: a spec, and whether telemetry is
// armed on it.
type epochCase struct {
	name  string
	spec  Spec
	armed bool
}

// epoch100 is the 100-UE epoch (50 ticks per UE at the 0.5 s epoch)
// disarmed, with telemetry armed, and with the transport plane armed
// (gcc controller, video workload).
func epoch100() []epochCase {
	transported := epochSpec(100, 0.5, 2)
	transported.Transport = &transport.Spec{Controller: "gcc", Workload: "video", StartRateMbps: 4}
	return []epochCase{
		{"100ue", epochSpec(100, 0.5, 2), false},
		{"100ue_armed", epochSpec(100, 0.5, 2), true},
		{"100ue_transport", transported, false},
	}
}

// warmEngine builds an engine and steps its first epoch, so the scratch
// pools have grown and every later epoch runs in steady state. Armed
// engines count the timeline events they publish into *events.
func warmEngine(tb testing.TB, spec Spec, armed bool, events *int) *Engine {
	ctx := context.Background()
	var opts Options
	if armed {
		opts.Telemetry = obs.New(obs.Config{})
		opts.OnTimeline = func(evs []obs.Event) { *events += len(evs) }
	}
	eng, err := NewEngine(ctx, spec, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.StepEpoch(ctx); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// BenchmarkEpoch times one steady-state epoch per op. Build and
// warm-up run with the timer stopped, and the engine is rebuilt the
// same way when a run is done, so set-up and first-epoch pool growth
// never count against the epoch. The 100-UE trio measures what the
// observability and transport planes add to the same epoch; 1k is
// where barrier work (event sort, load swap, peak scan) starts to show
// next to the stepping; 100k runs at the 50 ms cadence a serving
// system would use at that scale, half a million UE-ticks per op.
func BenchmarkEpoch(b *testing.B) {
	cases := append(epoch100(),
		epochCase{"1kue", epochSpec(1000, 0.5, 2), false},
		epochCase{"100kue", epochSpec(100_000, 0.05, 0.4), false})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchEpochs(b, c.spec, c.armed) })
	}
}

func benchEpochs(b *testing.B, spec Spec, armed bool) {
	ctx := context.Background()
	events := 0
	eng := warmEngine(b, spec, armed, &events)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := eng.StepEpoch(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			b.StopTimer()
			eng = warmEngine(b, spec, armed, &events)
			b.StartTimer()
		}
	}
	b.StopTimer()
	if armed && events == 0 {
		b.Fatal("armed run produced no telemetry")
	}
	// Resident RNG state: live arena bytes per UE next to what the same
	// streams would cost as eagerly seeded heap generators.
	if st := eng.RNGStats(); st.Streams > 0 && st.LiveBytes > 0 {
		b.ReportMetric(float64(st.LiveBytes)/float64(spec.UEs), "RNG_B/ue")
		b.ReportMetric(float64(int64(st.Streams)*sim.EagerStreamBytes)/float64(spec.UEs), "RNG_eager_B/ue")
		b.ReportMetric(float64(st.Spills), "RNG_spills")
	}
}

// TestSteadyEpochAllocBound pins the zero-alloc epoch contract at the
// bound DESIGN.md states: every steady-state epoch of the 100-UE fleet
// makes at most 100 heap allocations, disarmed or with either plane
// armed. What remains is the pool's goroutine bookkeeping and the
// amortised growth of per-UE result slices, whose exact count moves
// with the toolchain and between runs; one allocation per UE would
// cross the bound.
func TestSteadyEpochAllocBound(t *testing.T) {
	const bound = 100
	ctx := context.Background()
	for _, c := range epoch100() {
		events := 0
		eng := warmEngine(t, c.spec, c.armed, &events)
		for done := false; !done; {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if done, err = eng.StepEpoch(ctx); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n > bound {
				t.Errorf("%s: steady-state epoch made %d allocations, want ≤ %d", c.name, n, bound)
			}
		}
	}
}
