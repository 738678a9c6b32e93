package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rem"
	"rem/internal/par"
)

// runPaper is paper_quick: every registered experiment at
// QuickExperimentConfig, fanned out on an all-cores pool with serial
// inner loops exactly like remeval -all -quick, one pass after another
// for the run's duration (one caller, closed loop). The first, cold
// pass is the set-up; each later pass must render byte-identical
// reports. fig14b is left out of the comparison and the digest because
// its report prints measured wall-clock runtimes.
//
// An op is one pass; work_per_s counts experiments. A run holds about
// seven passes, so the pass-time p90 (per-layer op.ms_p90) is close to
// the slowest pass.
//
// The experiments run at the paper's own base seed, as remeval does:
// the base seed draws every replica's deployment, and a different one
// changes a pass's work by up to 25%, so the workload seed is not
// passed on.
func runPaper(ctx context.Context, cfg config, tr *tracer) (*result, error) {
	ecfg := rem.QuickExperimentConfig()
	ecfg.Workers = 1
	var ids []string
	if cfg.smoke {
		ids = smokeExperiments
	} else {
		for _, e := range rem.Experiments() {
			ids = append(ids, e.ID)
		}
	}

	res := &result{}
	pass := func(n int) []string {
		ps := tr.start("eval.pass", 0, n)
		defer tr.end(ps)
		reps, err := par.IndexedMap(0, len(ids), func(i int) (string, error) {
			sp := tr.start("eval."+ids[i], ps, n)
			defer tr.end(sp)
			rep, err := rem.RunExperiment(ids[i], ecfg)
			if err != nil {
				return "", fmt.Errorf("%s: %w", ids[i], err)
			}
			return rep.Render(), nil
		})
		res.check(err == nil, "paper_quick: pass %d: %v", n, err)
		return reps
	}
	same := func(n int, got, want []string) {
		ok := len(got) == len(ids) && len(want) == len(ids)
		for i := 0; ok && i < len(ids); i++ {
			ok = ids[i] == "fig14b" || got[i] == want[i]
		}
		res.check(ok, "paper_quick: pass %d reports differ from the first pass", n)
	}

	t0 := time.Now()
	first := pass(0)
	res.setupS = []float64{time.Since(t0).Seconds()}
	if err := tr.beginWindow(); err != nil {
		return nil, err
	}
	start := time.Now()
	for n := 1; n == 1 || time.Since(start).Seconds() < cfg.seconds; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GC() // each pass starts from a heap without the last pass's garbage
		t := time.Now()
		reps := pass(n)
		d := time.Since(t)
		res.opMs = append(res.opMs, float64(d)/float64(time.Millisecond))
		res.work += float64(len(ids))
		res.workSec += d.Seconds()
		same(n, reps, first)
		tr.sampleHeap()
	}
	tr.endWindow()

	var parts [][]byte
	for i, r := range first {
		if ids[i] != "fig14b" {
			parts = append(parts, []byte(ids[i]), []byte(r))
		}
	}
	res.digest = digest(parts...)
	var err error
	if res.rssMB, err = peakRSSMB("self"); err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	return res, nil
}
