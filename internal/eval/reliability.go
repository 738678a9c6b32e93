package eval

import (
	"fmt"

	"rem/internal/dsp"
	"rem/internal/mobility"
	"rem/internal/ofdm"
	"rem/internal/trace"
	"rem/internal/transport"
)

func init() {
	register("table2", "Network reliability in extreme mobility (legacy)", runTable2)
	register("table5", "Reduction of failures and policy conflicts (legacy vs REM)", runTable5)
	register("fig2a", "Measurement feedback delay CDF, HSR vs driving", runFig2a)
	register("fig2b", "Block error rate before signaling loss (UL vs DL)", runFig2b)
	register("fig9", "TCP stalling time, legacy vs REM", runFig9)
	register("fig14a", "Feedback delay reduction, legacy vs REM", runFig14a)
	register("fig15", "Failures after fixing conflict-prone proactive policies", runFig15)
}

// table2Cells enumerates the Table 2 columns: LA low mobility plus the
// Beijing–Shanghai speed buckets (the paper's Table 2 layout).
func table2Cells() []struct {
	ds     trace.Dataset
	bucket [2]float64
} {
	var out []struct {
		ds     trace.Dataset
		bucket [2]float64
	}
	la := trace.Describe(trace.LowMobility)
	out = append(out, struct {
		ds     trace.Dataset
		bucket [2]float64
	}{la, la.SpeedBucketsKmh[0]})
	sh := trace.Describe(trace.BeijingShanghai)
	for _, b := range sh.SpeedBucketsKmh {
		out = append(out, struct {
			ds     trace.Dataset
			bucket [2]float64
		}{sh, b})
	}
	return out
}

func runTable2(cfg Config) (*Report, error) {
	cells := table2Cells()
	cols := []string{"metric"}
	var specs []cellSpec
	for _, c := range cells {
		cols = append(cols, fmt.Sprintf("%s %g-%gkm/h", c.ds.ID, c.bucket[0], c.bucket[1]))
		specs = append(specs, cellSpec{ds: c.ds, bucket: c.bucket, mode: trace.Legacy})
	}
	aggs, err := runCells(cfg, specs)
	if err != nil {
		return nil, err
	}
	row := func(name string, f func(*Agg) string) []string {
		out := []string{name}
		for _, a := range aggs {
			out = append(out, f(a))
		}
		return out
	}
	t := Table{
		Title:   "Table 2: reliability under legacy 4G/5G mobility management",
		Columns: cols,
		Rows: [][]string{
			row("avg handover interval", func(a *Agg) string { return secs(a.HOIntervalSec) }),
			row("total failure ratio", func(a *Agg) string { return pct(a.FailureRatio) }),
			row("  feedback delay/loss", func(a *Agg) string { return pct(a.CauseRatio[mobility.CauseFeedback]) }),
			row("  missed cell", func(a *Agg) string { return pct(a.CauseRatio[mobility.CauseMissedCell]) }),
			row("  handover cmd loss", func(a *Agg) string { return pct(a.CauseRatio[mobility.CauseHOCmdLoss]) }),
			row("  coverage holes", func(a *Agg) string { return pct(a.CauseRatio[mobility.CauseCoverageHole]) }),
			row("avg loop frequency", func(a *Agg) string {
				if a.ConflictLoops == 0 {
					return "none"
				}
				return secs(a.LoopEverySec)
			}),
			row("avg handovers/loop", func(a *Agg) string { return f1(a.AvgHOsPerLoop) }),
			row("avg disruption/loop", func(a *Agg) string { return f2(a.AvgDisruptionSec) + "s" }),
			row("intra-freq loops", func(a *Agg) string { return pct(a.IntraLoopFrac) }),
		},
	}
	return &Report{
		ID:     "table2",
		Title:  "Network reliability in extreme mobility",
		Paper:  "HO every 50.2/20.4/19.3/11.3s; failure ratio 4.3/5.2/10.6/12.5%; loops every 5284/410/1090/195s",
		Tables: []Table{t},
		Notes: []string{
			"columns: LA 0-100 km/h, Beijing-Shanghai 100-200 / 200-300 / 300-350 km/h",
		},
	}, nil
}

func runTable5(cfg Config) (*Report, error) {
	type cell struct {
		name   string
		ds     trace.Dataset
		bucket [2]float64
	}
	cells := []cell{
		{"LA 0-100", trace.Describe(trace.LowMobility), [2]float64{0, 100}},
		{"Taiyuan 200-300", trace.Describe(trace.BeijingTaiyuan), [2]float64{200, 300}},
		{"Shanghai 100-200", trace.Describe(trace.BeijingShanghai), [2]float64{100, 200}},
		{"Shanghai 200-300", trace.Describe(trace.BeijingShanghai), [2]float64{200, 300}},
		{"Shanghai 300-350", trace.Describe(trace.BeijingShanghai), [2]float64{300, 350}},
	}
	t := Table{
		Title:   "Table 5: failures and conflicts, legacy (LGC) vs REM, with reduction ε",
		Columns: []string{"route/speed", "metric", "LGC", "REM", "eps"},
	}
	// Both arms of every route/speed cell are independent: fan all
	// 2×len(cells) replays out at once.
	var specs []cellSpec
	for _, c := range cells {
		specs = append(specs,
			cellSpec{ds: c.ds, bucket: c.bucket, mode: trace.Legacy},
			cellSpec{ds: c.ds, bucket: c.bucket, mode: trace.REM})
	}
	aggs, err := runCells(cfg, specs)
	if err != nil {
		return nil, err
	}
	for ci, c := range cells {
		leg, rem := aggs[2*ci], aggs[2*ci+1]
		// Replay convention: the paper replays the dataset's handover
		// events and scores how many REM prevents, so both arms'
		// failure counts are normalized by the legacy arm's event
		// count (the runs cover identical durations).
		legEvents := float64(leg.Handovers + leg.Failures)
		renorm := func(remRatio float64) float64 {
			if legEvents == 0 {
				return 0
			}
			remEvents := float64(rem.Handovers + rem.Failures)
			return remRatio * remEvents / legEvents
		}
		add := func(metric string, l, r float64) {
			t.Rows = append(t.Rows, []string{c.name, metric, pct(l), pct(r), reduction(l, r)})
		}
		add("total failure ratio", leg.FailureRatio, renorm(rem.FailureRatio))
		add("failure w/o coverage hole", leg.RatioNoHoles, renorm(rem.RatioNoHoles))
		add("feedback delay/loss", leg.CauseRatio[mobility.CauseFeedback], renorm(rem.CauseRatio[mobility.CauseFeedback]))
		add("missed cell", leg.CauseRatio[mobility.CauseMissedCell], renorm(rem.CauseRatio[mobility.CauseMissedCell]))
		add("handover cmd loss", leg.CauseRatio[mobility.CauseHOCmdLoss], renorm(rem.CauseRatio[mobility.CauseHOCmdLoss]))
		add("coverage holes", leg.CauseRatio[mobility.CauseCoverageHole], renorm(rem.CauseRatio[mobility.CauseCoverageHole]))
		add("HO in conflicts", leg.HOsInConflictFrac, rem.HOsInConflictFrac)
	}
	return &Report{
		ID:     "table5",
		Title:  "Reduction of failures and policy conflicts in high-speed rails",
		Paper:  "total ratio 12.5%→3.5% at 300-350 (2.6x); w/o holes up to 12.7x; conflicts →0 in all cases",
		Tables: []Table{t},
		Notes: []string{
			"REM must show zero HO-in-conflicts (Theorem 2 enforced) and a multi-x failure reduction excluding holes",
		},
	}, nil
}

func runFig2a(cfg Config) (*Report, error) {
	aggs, err := runCells(cfg, []cellSpec{
		{ds: trace.Describe(trace.BeijingShanghai), bucket: [2]float64{300, 350}, mode: trace.Legacy},
		{ds: trace.Describe(trace.LowMobility), bucket: [2]float64{0, 100}, mode: trace.Legacy},
	})
	if err != nil {
		return nil, err
	}
	hsr, drv := aggs[0], aggs[1]
	return &Report{
		ID:    "fig2a",
		Title: "Slow feedback: measurement delay CDF",
		Paper: "HSR feedback averages ~800ms (client moves 44.6-78m); driving much faster",
		Series: []Series{
			cdfSeries("HSR (300-350km/h)", "delay (s)", hsr.FeedbackDelays),
			cdfSeries("Driving (0-100km/h)", "delay (s)", drv.FeedbackDelays),
			cdfSeries("HSR inter-frequency subset", "delay (s)", hsr.FeedbackDelaysInter),
		},
		Notes: []string{
			fmt.Sprintf("mean feedback delay: HSR %.3fs vs driving %.3fs", dsp.Mean(hsr.FeedbackDelays), dsp.Mean(drv.FeedbackDelays)),
			fmt.Sprintf("the paper's ~800ms is the multi-band measurement latency: our HSR inter-frequency subset averages %.3fs",
				dsp.Mean(hsr.FeedbackDelaysInter)),
		},
	}, nil
}

func runFig2b(cfg Config) (*Report, error) {
	sh := trace.Describe(trace.BeijingShanghai)
	a, err := runCell(cfg, sh, [2]float64{300, 350}, trace.Legacy)
	if err != nil {
		return nil, err
	}
	// The paper's Fig. 2b samples physical-layer block error rates
	// within 5 seconds before each network failure. LTE link
	// adaptation holds BLER near its ~10% target while SNR is stable;
	// the elevation near failures comes from the adaptation lag — the
	// MCS was chosen for the SNR of a moment ago, and at 300+ km/h the
	// channel has already fallen. The uplink adapts faster (the eNB
	// measures it directly) than the downlink (stale CQI reports),
	// which is why the paper sees 9.9% UL vs 30.3% DL.
	ul := adaptedBLER(a.SNRTrace, a.SNRTraceAt, a.FailureTimes, 5, 0.1)
	dl := adaptedBLER(a.SNRTrace, a.SNRTraceAt, a.FailureTimes, 5, 1.5)
	return &Report{
		ID:    "fig2b",
		Title: "Block errors in signaling loss",
		Paper: "avg block error rate before failures: uplink 9.9%, downlink 30.3%",
		Series: []Series{
			cdfSeries("uplink", "block error rate (%)", ul),
			cdfSeries("downlink", "block error rate (%)", dl),
		},
		Notes: []string{
			fmt.Sprintf("mean block error rate within 5s of a failure: uplink %.1f%%, downlink %.1f%% (n=%d/%d)",
				dsp.Mean(ul), dsp.Mean(dl), len(ul), len(dl)),
			"deviation: absolute levels exceed the paper's 9.9%/30.3% because this PHY models a single-antenna flat-Rayleigh link; production eNBs add receive diversity and frequency-selective scheduling. The UL < DL ordering and the near-failure elevation reproduce.",
		},
	}, nil
}

// preFailureWindow selects samples whose timestamps fall within
// windowSec before any failure time.
func preFailureWindow(vals, at, failures []float64, windowSec float64) []float64 {
	var out []float64
	for i, v := range vals {
		if i >= len(at) {
			break
		}
		for _, ft := range failures {
			if at[i] <= ft && ft-at[i] <= windowSec {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// adaptedBLER converts the serving-SNR trace within pre-failure
// windows into block error percentages under lagging link adaptation:
// the MCS threshold sits 2 dB below the SNR observed adaptLag seconds
// earlier, so BLER = waterfall(snr_now − (snr_lagged − 2)).
func adaptedBLER(snr, at, failures []float64, windowSec, adaptLag float64) []float64 {
	var out []float64
	for i := range snr {
		inWindow := false
		for _, ft := range failures {
			if at[i] <= ft && ft-at[i] <= windowSec {
				inWindow = true
				break
			}
		}
		if !inWindow {
			continue
		}
		// The scheduler's CQI reference: samples within a 0.5 s
		// averaging window ending adaptLag ago (CQI is filtered; raw
		// per-sample fades are too fast to track at any speed).
		var ref float64
		nRef := 0
		for j := i; j >= 0; j-- {
			age := at[i] - at[j]
			if age < adaptLag {
				continue
			}
			if age > adaptLag+0.5 {
				break
			}
			ref += snr[j]
			nRef++
		}
		if nRef == 0 {
			ref = snr[i]
			nRef = 1
		}
		ref /= float64(nRef)
		// LTE link adaptation targeting 10% BLER, fed the stale CQI:
		// the elevation is adaptation lag (ofdm.AdaptedBLER).
		out = append(out, 100*ofdm.AdaptedBLER(snr[i], ref, 0.1))
	}
	return out
}

func runFig9(cfg Config) (*Report, error) {
	sh := trace.Describe(trace.BeijingShanghai)
	t := Table{
		Title:   "Fig 9a: average TCP stalling time (s)",
		Columns: []string{"speed", "legacy", "REM"},
	}
	var trace9bX, trace9bY []float64
	buckets := [][2]float64{{200, 300}, {300, 350}}
	var specs []cellSpec
	for _, bucket := range buckets {
		specs = append(specs,
			cellSpec{ds: sh, bucket: bucket, mode: trace.Legacy},
			cellSpec{ds: sh, bucket: bucket, mode: trace.REM})
	}
	aggs, err := runCells(cfg, specs)
	if err != nil {
		return nil, err
	}
	for bi, bucket := range buckets {
		leg, rem := aggs[2*bi], aggs[2*bi+1]
		// Only failure outages stall TCP meaningfully; handover
		// interruptions (50 ms) barely register. Filter to ≥0.2 s.
		ls := transport.ReplayStalls(longOutages(leg.Outages, 0.2), transport.DefaultStallConfig())
		rs := transport.ReplayStalls(longOutages(rem.Outages, 0.2), transport.DefaultStallConfig())
		lTotal, lMean := stallTotals(ls)
		rTotal, rMean := stallTotals(rs)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g-%g km/h", bucket[0], bucket[1]),
			fmt.Sprintf("%.2f (%.1fs per 1000s)", lMean, lTotal/leg.Duration*1000),
			fmt.Sprintf("%.2f (%.1fs per 1000s)", rMean, rTotal/rem.Duration*1000),
		})
		if trace9bX == nil && len(ls) > 0 {
			st := ls[0]
			trace9bX, trace9bY = throughputTrace(
				[]transport.Stall{{Start: 5, Duration: st.Duration, FinalRTO: st.FinalRTO}},
				5+st.Duration+6, 0.25)
		}
	}
	rep := &Report{
		ID:     "fig9",
		Title:  "REM's benefit for TCP",
		Paper:  "avg stall 7.9s→4.2s at 200km/h, 6.6s→4.5s at 300km/h",
		Tables: []Table{t},
		Notes: []string{
			"per-stall durations are set by the radio re-establishment timer and RTO overshoot, identical for both modes in this model; REM's win is fewer failures, i.e. the total stall seconds per 1000 s of travel",
		},
	}
	if trace9bX != nil {
		rep.Series = append(rep.Series, Series{
			Name:   "Fig 9b: TCP throughput around one failure",
			XLabel: "time (s)", YLabel: "Mbps", X: trace9bX, Y: trace9bY,
		})
	}
	return rep, nil
}

func runFig14a(cfg Config) (*Report, error) {
	sh := trace.Describe(trace.BeijingShanghai)
	aggs, err := runCells(cfg, []cellSpec{
		{ds: sh, bucket: [2]float64{300, 350}, mode: trace.Legacy},
		{ds: sh, bucket: [2]float64{300, 350}, mode: trace.REM},
	})
	if err != nil {
		return nil, err
	}
	leg, rem := aggs[0], aggs[1]
	return &Report{
		ID:    "fig14a",
		Title: "Feedback delay reduction",
		Paper: "average feedback latency 802.5ms (legacy) → 242.4ms (REM)",
		Series: []Series{
			cdfSeries("Legacy", "feedback delay (s)", leg.FeedbackDelays),
			cdfSeries("REM", "feedback delay (s)", rem.FeedbackDelays),
		},
		Notes: []string{
			fmt.Sprintf("mean: legacy %.3fs vs REM %.3fs", dsp.Mean(leg.FeedbackDelays), dsp.Mean(rem.FeedbackDelays)),
			fmt.Sprintf("inter-frequency (multi-band) subset, where cross-band estimation bites: legacy %.3fs vs REM %.3fs",
				dsp.Mean(leg.FeedbackDelaysInter), dsp.Mean(rem.FeedbackDelaysInter)),
		},
	}, nil
}

func runFig15(cfg Config) (*Report, error) {
	sh := trace.Describe(trace.BeijingShanghai)
	t := Table{
		Title:   "Fig 15: failure ratio w/o coverage holes after Theorem-2 policy repair",
		Columns: []string{"speed (km/h)", "legacy (OFDM, conflict-prone)", "legacy+fixed policy", "REM"},
	}
	buckets := [][2]float64{{100, 200}, {200, 300}, {300, 350}}
	var specs []cellSpec
	for _, bucket := range buckets {
		specs = append(specs,
			cellSpec{ds: sh, bucket: bucket, mode: trace.Legacy},
			cellSpec{ds: sh, bucket: bucket, mode: trace.LegacyFixedPolicy},
			cellSpec{ds: sh, bucket: bucket, mode: trace.REM})
	}
	aggs, err := runCells(cfg, specs)
	if err != nil {
		return nil, err
	}
	for bi, bucket := range buckets {
		leg, fixed, rem := aggs[3*bi], aggs[3*bi+1], aggs[3*bi+2]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g-%g", bucket[0], bucket[1]),
			pct(leg.RatioNoHoles), pct(fixed.RatioNoHoles), pct(rem.RatioNoHoles),
		})
	}
	return &Report{
		ID:     "fig15",
		Title:  "Failures without aggressive (conflict-prone) policies",
		Paper:  "removing proactive policies does not raise REM's failures: REM stays negligible at all speeds",
		Tables: []Table{t},
		Notes: []string{
			"REM column must stay well below legacy even though its conflict-prone proactive offsets were removed",
		},
	}, nil
}

func cdfSeries(name, xlabel string, xs []float64) Series {
	pts := dsp.CDF(xs)
	s := Series{Name: name, XLabel: xlabel, YLabel: "CDF"}
	for _, p := range pts {
		s.X = append(s.X, p.Value)
		s.Y = append(s.Y, p.Prob)
	}
	return s
}

// Fig. 9b's TCP flow: full rate outside stalls, and a linear ramp
// approximating slow-start recovery after each one.
const (
	tcpRateMbps     = 20
	tcpSlowStartSec = 1.5
)

// stallTotals sums stall durations in stall order and returns the
// total and the mean (0 for no stalls).
func stallTotals(stalls []transport.Stall) (total, mean float64) {
	for _, st := range stalls {
		total += st.Duration
	}
	if len(stalls) > 0 {
		mean = total / float64(len(stalls))
	}
	return total, mean
}

// throughputTrace samples the Fig. 9b throughput timeline over
// [0, horizon) every dt seconds: zero during each stall, then the
// slow-start ramp. It returns no samples for a non-positive horizon
// or dt.
func throughputTrace(stalls []transport.Stall, horizon, dt float64) (times, mbps []float64) {
	if dt <= 0 || horizon <= 0 {
		return nil, nil
	}
	for t := 0.0; t < horizon; t += dt {
		rate := float64(tcpRateMbps)
		for _, s := range stalls {
			end := s.Start + s.Duration
			switch {
			case t >= s.Start && t < end:
				rate = 0
			case t >= end && t < end+tcpSlowStartSec:
				if r := tcpRateMbps * (t - end) / tcpSlowStartSec; r < rate {
					rate = r
				}
			}
		}
		times = append(times, t)
		mbps = append(mbps, rate)
	}
	return times, mbps
}

func longOutages(os []transport.Outage, minDur float64) []transport.Outage {
	var out []transport.Outage
	for _, o := range os {
		if o.Duration >= minDur {
			out = append(out, o)
		}
	}
	return out
}
