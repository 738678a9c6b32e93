package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"rem/internal/fleet"
	"rem/internal/mobility"
	"rem/internal/trace"
)

// setupRepeats is how many times a workload sets up per run; set-up
// time is their median.
const setupRepeats = 3

// worldSeed roots the deployment (cell layout, policies, radio
// configuration) every fleet-based workload runs in. The deployment
// sets how much work a UE costs, by up to 25% from one seed to the
// next, so it stays fixed; the workload seed picks which UEs of that
// world run, through fleet.Spec.UEOffset, and the UEs' own randomness
// (start position, speed, shadowing, fading) follows from their ids.
const worldSeed = 1

// ueOffset maps the workload seed to a UE range of the world.
func ueOffset(seed int64, ues int) int {
	return int(uint64(seed)%1_000_000) * ues
}

// runFleet is fleet_4k: a disarmed 4000-UE REM fleet on
// beijing-shanghai with the default 0.5 s epoch, stepped in process
// through fleet.NewEngine, StepEpoch and Finish. The simulated
// duration is three times the measured window, which at about 170 ms
// per epoch on a 2-core machine makes the stepping last about as long
// as the window. The engine is built three times (set-up); the last one
// is stepped to completion, one op per epoch.
func runFleet(ctx context.Context, cfg config, tr *tracer) (*result, error) {
	spec := fleet.Spec{
		UEs: 4000, UEOffset: ueOffset(cfg.seed, 4000), Dataset: trace.BeijingShanghai, Mode: trace.REM,
		DurationSec: 3 * cfg.seconds, Seed: worldSeed,
	}
	if cfg.smoke {
		spec.UEs, spec.UEOffset, spec.DurationSec = 200, ueOffset(cfg.seed, 200), 10
	}
	res := &result{}
	h := &fleetHooks{tr: tr}
	var eng *fleet.Engine
	for i := 0; i < setupRepeats; i++ {
		eng = nil
		runtime.GC() // each build starts from the heap a fresh process has
		sp := tr.start("fleet.new_engine", 0, i)
		t := time.Now()
		e, err := fleet.NewEngine(ctx, spec, h.options())
		res.setupS = append(res.setupS, time.Since(t).Seconds())
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		eng = e
	}

	if err := tr.beginWindow(); err != nil {
		return nil, err
	}
	out, err := h.step(ctx, eng, 0, res)
	tr.endWindow()
	if err != nil {
		return nil, err
	}
	spec = eng.Spec()
	res.work = float64(spec.UEs) * spec.DurationSec / mobility.DefaultConfig().TickSec
	checkFleet(res, "fleet_4k", spec, out, h)
	js, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	res.digest = digest(js)
	if res.rssMB, err = peakRSSMB("self"); err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	if tr != nil && h.epochs > 0 {
		res.layer = map[string]float64{
			"fleet.epoch_allocs":     float64(h.allocs) / float64(h.epochs),
			"fleet.events_per_epoch": float64(h.events) / float64(h.epochs),
		}
	}
	return res, nil
}

// fleetHooks are the observation hooks the benchmark installs on an
// engine. The observer only counts events by type (for the gates); the
// progress hook, installed on traced runs only, reads the epoch's
// allocation count and is timed as a child span so the epoch's self
// time excludes it.
type fleetHooks struct {
	tr     *tracer
	byType map[string]int
	events int
	allocs uint64
	epochs int
	span   int64 // the open fleet.step_epoch span
}

func (h *fleetHooks) options() fleet.Options {
	h.byType = map[string]int{}
	o := fleet.Options{Observer: func(ev fleet.Event) {
		h.byType[ev.Type]++
		h.events++
	}}
	if h.tr != nil {
		o.Progress = func(p fleet.Progress) {
			sp := h.tr.start("bench.progress_hook", h.span, h.epochs)
			h.allocs += p.EpochAllocs
			h.tr.end(sp)
		}
	}
	return o
}

// step runs eng to completion, one fleet.step_epoch span and op per
// epoch, and finalizes it under a fleet.finish span. Every epoch's
// wall time counts into res.workSec.
func (h *fleetHooks) step(ctx context.Context, eng *fleet.Engine, parent int64, res *result) (*fleet.Result, error) {
	for {
		h.span = h.tr.start("fleet.step_epoch", parent, h.epochs)
		t := time.Now()
		done, err := eng.StepEpoch(ctx)
		d := time.Since(t)
		h.tr.end(h.span)
		if err != nil {
			return nil, err
		}
		h.epochs++
		res.opMs = append(res.opMs, float64(d)/float64(time.Millisecond))
		res.workSec += d.Seconds()
		h.tr.sampleHeap()
		if done {
			break
		}
	}
	sp := h.tr.start("fleet.finish", parent, 0)
	out := eng.Finish()
	h.tr.end(sp)
	return out, nil
}

// checkFleet gates a finished fleet run on invariants that hold at any
// seed: one summary row per UE, the epoch count the schedule implies,
// and observed events matching the summary's counts by type.
func checkFleet(res *result, name string, spec fleet.Spec, out *fleet.Result, h *fleetHooks) {
	sum := out.Summary
	res.check(len(sum.PerUE) == spec.UEs, "%s: %d per-UE rows for %d UEs", name, len(sum.PerUE), spec.UEs)
	want := int(math.Ceil(spec.DurationSec/spec.EpochSec - 1e-9))
	res.check(h.epochs == want, "%s: %d epochs, schedule implies %d", name, h.epochs, want)
	for typ, n := range map[string]int{
		fleet.EventHandover: sum.Handovers,
		fleet.EventFailure:  sum.Failures,
		fleet.EventBlocked:  sum.Blocked,
	} {
		res.check(h.byType[typ] == n, "%s: %d %s events observed, summary says %d", name, h.byType[typ], typ, n)
	}
}
