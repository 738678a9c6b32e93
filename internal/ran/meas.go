package ran

import (
	"rem/internal/fault"
	"rem/internal/obs"
	"rem/internal/policy"
	"rem/internal/sim"
)

// MeasConfig parameterizes the client measurement schedule.
type MeasConfig struct {
	// IntraPeriod is the refresh period of intra-frequency neighbor
	// measurements (default 0.04 s).
	IntraPeriod float64
	// GapPeriod is the period of inter-frequency measurement gaps;
	// each gap visits one foreign channel round-robin (default 0.08 s,
	// 3GPP MeasurementGap patterns).
	GapPeriod float64
	// ReconfigRTT is the round trip for A2-triggered measurement
	// reconfiguration before inter-frequency gaps start (paper §3.2's
	// "extra round trips", default 0.06 s).
	ReconfigRTT float64
	// CrossBand enables REM's relaxed feedback (§5.2): one measured
	// cell per base station, co-sited siblings filled in by cross-band
	// estimation with CrossBandErrStdDB estimation noise and no gaps.
	CrossBand         bool
	CrossBandErrStdDB float64
	// UseDDSNR selects the delay-Doppler SNR metric (REM) instead of
	// RSRP (legacy) as the policy input.
	UseDDSNR bool
	// FilterCoeff is the 3GPP L3 filter coefficient a in
	// new = old + a·(meas − old); 1 disables filtering (default 0.25).
	FilterCoeff float64
	// SettleSec suppresses rule evaluation for this long after the
	// engine starts (post-handover RACH + RRC reconfiguration settling,
	// default 0.3 s).
	SettleSec float64
	// ReportIntervalSec spaces repeated reports for a still-true
	// criterion (3GPP reportInterval, default 0.24 s).
	ReportIntervalSec float64
	// AlwaysGaps arms inter-frequency measurement gaps from the start
	// (no A2 gating) — the REM-without-cross-band ablation still needs
	// to see inter-frequency cells somehow.
	AlwaysGaps bool
	// MeasNoiseStdDB is the per-sample measurement error of the raw
	// metric. For legacy RSRP it grows with client speed: the OFDM
	// coherence time shrinks as 1/v (paper §2), so each L1 measurement
	// window averages fewer coherent samples. REM's delay-Doppler
	// measurements stay clean (the stable h(τ,ν) of Appendix A), which
	// is the paper's core reliability argument.
	MeasNoiseStdDB float64
	// CSIFault, when non-nil, is the fault plane's cross-band CSI hook:
	// fault.CSIStale freezes sibling-band estimates at their last value
	// (decisions run on outdated CSI), fault.CSIZero collapses them to
	// the noise floor (inter-band cells effectively vanish from the
	// policy input). Direct anchor measurements are real radio reads
	// and stay unaffected. The hook must be deterministic in t.
	CSIFault func(t float64) fault.CSIMode
}

// DefaultLegacyMeasConfig returns the operator-flavored legacy schedule.
func DefaultLegacyMeasConfig() MeasConfig {
	return MeasConfig{
		IntraPeriod: 0.04, GapPeriod: 0.08, ReconfigRTT: 0.06,
		FilterCoeff: 0.25, SettleSec: 0.3, ReportIntervalSec: 0.24,
	}
}

// DefaultREMMeasConfig returns REM's schedule.
func DefaultREMMeasConfig() MeasConfig {
	return MeasConfig{
		IntraPeriod: 0.04, GapPeriod: 0.08, ReconfigRTT: 0.06, FilterCoeff: 0.25,
		SettleSec: 0.3, ReportIntervalSec: 0.24,
		CrossBand: true, CrossBandErrStdDB: 1.0, UseDDSNR: true,
	}
}

// Report is a measurement report ready to be sent to the serving cell.
type Report struct {
	CellID     int // reported neighbor cell
	Rule       policy.Rule
	Metric     float64 // reported value (RSRP dBm or DD-SNR dB)
	ServMetric float64
	// CriterionAt is when the rule's criterion first became
	// continuously true; ReadyAt is when the TTT elapsed and the report
	// was generated. ReadyAt − CriterionAt is the triggering delay of
	// Fig. 2a / Fig. 14a (delivery delay adds on top).
	CriterionAt float64
	ReadyAt     float64
}

type measValue struct {
	metric     float64
	measuredAt float64
	valid      bool
}

// MeasEngine runs the client-side measurement schedule and event
// evaluation for one serving cell's policy. After a handover, Reset
// re-points the same engine at the new serving cell and policy (3GPP
// resets measurement state on reconfiguration) without reallocating
// its flat per-cell state.
type MeasEngine struct {
	Cfg     MeasConfig
	Dep     *Deployment
	Policy  *policy.Policy
	Serving int

	// Rec, when non-nil, receives client-side timeline events
	// (gaps arming, measurement triggers). Trig, when non-nil, counts
	// elapsed time-to-trigger criteria. Both are nil-safe handles from
	// rem/internal/obs; recording draws no randomness, so arming them
	// cannot perturb the measurement RNG stream. Both survive Reset.
	Rec  *obs.Recorder
	Trig *obs.Counter

	rng *sim.RNG

	// values is the flat L3 filter state, indexed by dense cell ID
	// (slot 0 unused); tttSince tracks per (rule, cell) when each
	// criterion became continuously true, at index
	// ruleIdx*len(values)+cellID, with -1 meaning "not tracking".
	values     []measValue
	tttSince   []float64
	gapsActive bool
	gapsAt     float64 // when gaps become active (after reconfig RTT)
	a2Since    float64
	a2Armed    bool

	startAt    float64
	started    bool
	lastIntra  float64
	lastGap    float64
	gapRR      int // round-robin index over foreign channels
	firstTick  bool
	foreignChs []int
	allChs     []int    // every deployed channel, sorted (cached)
	reports    []Report // reused by evaluate; valid until the next Tick

	// ruleCands[ri] lists, in ascending dense-ID order, the non-serving
	// cells that pass rule ri's TargetChannel filter, each with the
	// rule's effective offset toward it (A3 pair overrides resolved).
	// The deployment, policy and serving cell are fixed between Resets,
	// so evaluate can walk these short lists instead of re-filtering the
	// full ID range and looking up offsets per rule per tick. Backed by
	// candBuf, reused across Resets.
	ruleCands [][]measCand
	candBuf   []measCand
}

// measCand is one candidate target of a handover rule.
type measCand struct {
	id       int32
	offsetDB float64
}

// NewMeasEngine builds the engine for a serving cell and its policy.
func NewMeasEngine(rng *sim.RNG, dep *Deployment, pol *policy.Policy, servingCell int, cfg MeasConfig) *MeasEngine {
	maxID := dep.MaxCellID()
	if maxID < servingCell {
		maxID = servingCell
	}
	e := &MeasEngine{
		Cfg: cfg, Dep: dep,
		rng:    rng,
		values: make([]measValue, maxID+1),
		allChs: dep.Channels(),
	}
	e.Reset(pol, servingCell)
	return e
}

// Reset re-initializes the engine for a new serving cell and policy in
// place, reusing the flat measurement state. The RNG stream continues
// uninterrupted — exactly what creating a fresh engine over the same
// stream did.
func (e *MeasEngine) Reset(pol *policy.Policy, servingCell int) {
	e.Policy, e.Serving = pol, servingCell
	clear(e.values)
	need := len(pol.Rules) * len(e.values)
	if cap(e.tttSince) < need {
		e.tttSince = make([]float64, need)
	} else {
		e.tttSince = e.tttSince[:need]
	}
	for i := range e.tttSince {
		e.tttSince[i] = -1
	}
	e.gapsActive, e.gapsAt = false, 0
	e.a2Since, e.a2Armed = -1, false
	e.startAt, e.started = 0, false
	e.lastIntra, e.lastGap, e.gapRR = 0, 0, 0
	e.firstTick = true
	e.reports = e.reports[:0]

	servingCh := e.Dep.ChannelOf(servingCell)
	e.foreignChs = e.foreignChs[:0]
	for _, ch := range e.allChs {
		if ch != servingCh {
			e.foreignChs = append(e.foreignChs, ch)
		}
	}
	// A stage-0 handover rule that explicitly targets a foreign channel
	// (stand-alone A4 for load balancing, Fig. 3) comes with its own
	// inter-frequency measurement object: gaps are armed from the
	// start, no A2 gate involved. Cross-band mode needs no gaps at all
	// — inferring co-sited bands is the point of §5.2.
	if !e.Cfg.CrossBand {
		for _, r := range pol.Rules {
			if r.IsHandoverRule() && r.Stage == 0 &&
				r.TargetChannel != 0 && r.TargetChannel != servingCh {
				e.gapsActive = true
				e.gapsAt = 0
				break
			}
		}
	}

	// Precompute the per-rule candidate lists evaluate walks every
	// tick. Skipped IDs (serving cell, wrong channel) have no side
	// effects in evaluate, so filtering them out here is equivalent to
	// re-filtering inline — minus the per-tick cost.
	stride := len(e.values)
	if maxCand := len(pol.Rules) * (stride - 1); cap(e.candBuf) < maxCand {
		e.candBuf = make([]measCand, 0, maxCand)
	}
	e.candBuf = e.candBuf[:0]
	if cap(e.ruleCands) < len(pol.Rules) {
		e.ruleCands = make([][]measCand, len(pol.Rules))
	}
	e.ruleCands = e.ruleCands[:len(pol.Rules)]
	for ri, r := range pol.Rules {
		start := len(e.candBuf)
		if r.IsHandoverRule() {
			for id := 1; id < stride; id++ {
				if id == servingCell {
					continue
				}
				if r.TargetChannel != 0 && e.Dep.ChannelOf(id) != r.TargetChannel {
					continue
				}
				off := r.OffsetDB
				if r.Type == policy.A3 {
					off = pol.A3OffsetFor(r, id)
				}
				e.candBuf = append(e.candBuf, measCand{id: int32(id), offsetDB: off})
			}
		}
		e.ruleCands[ri] = e.candBuf[start:len(e.candBuf):len(e.candBuf)]
	}
}

// GapsActive reports whether inter-frequency measurement gaps are
// currently consuming spectrum (for the MeasurementGap overhead
// accounting of §3.2).
func (e *MeasEngine) GapsActive(t float64) bool {
	if e.Cfg.AlwaysGaps {
		return true
	}
	return e.gapsActive && t >= e.gapsAt
}

// metricAt reads the configured policy input for cell id. The DD-SNR
// path uses the snapshot's lazy accessor so REM-mode scans never force
// the fade-dependent conversions they don't consume.
func (e *MeasEngine) metricAt(snap *RadioSnap, id int) (float64, bool) {
	if e.Cfg.UseDDSNR {
		return snap.DD(id)
	}
	cr, ok := snap.Get(id)
	return cr.RSRP, ok
}

// store applies the L3 filter and records a measurement. Values older
// than one second reset the filter (3GPP re-initializes after
// measurement interruptions).
func (e *MeasEngine) store(id int, t, raw float64) {
	if e.Cfg.MeasNoiseStdDB > 0 {
		raw += e.rng.Gauss(0, e.Cfg.MeasNoiseStdDB)
	}
	a := e.Cfg.FilterCoeff
	if a <= 0 || a > 1 {
		a = 1
	}
	old := e.values[id]
	v := raw
	if old.valid && t-old.measuredAt < 1.0 {
		v = old.metric + a*(raw-old.metric)
	}
	e.values[id] = measValue{metric: v, measuredAt: t, valid: true}
}

// Tick advances the engine to time t with the given radio snapshot and
// returns reports whose TTT has just elapsed. The returned slice is
// engine-owned scratch, valid until the next Tick.
func (e *MeasEngine) Tick(t float64, snap *RadioSnap) []Report {
	if !e.started {
		e.startAt = t
		e.started = true
	}
	e.visit(t, snap)
	if t-e.startAt < e.Cfg.SettleSec {
		return nil
	}
	return e.evaluate(t)
}

// visit updates stored measurement values according to the schedule.
func (e *MeasEngine) visit(t float64, snap *RadioSnap) {
	servingCh := e.Dep.ChannelOf(e.Serving)

	// Serving cell is always tracked.
	if m, ok := e.metricAt(snap, e.Serving); ok {
		e.store(e.Serving, t, m)
	} else {
		e.values[e.Serving] = measValue{}
	}

	if e.Cfg.CrossBand {
		e.visitCrossBand(t, snap, servingCh)
		return
	}

	// Intra-frequency scan. The flat snapshot iterates in ascending
	// cell-ID order by construction, keeping RNG draws reproducible.
	maxID := snap.MaxID()
	if e.firstTick || t-e.lastIntra >= e.Cfg.IntraPeriod {
		e.lastIntra = t
		for id := 1; id <= maxID; id++ {
			if id == e.Serving || !snap.Visible(id) {
				continue
			}
			if e.Dep.ChannelOf(id) == servingCh {
				m, _ := e.metricAt(snap, id)
				e.store(id, t, m)
			}
		}
	}

	// Inter-frequency gaps: one foreign channel per gap, round-robin.
	if e.GapsActive(t) && len(e.foreignChs) > 0 &&
		(e.firstTick || t-e.lastGap >= e.Cfg.GapPeriod) {
		e.lastGap = t
		ch := e.foreignChs[e.gapRR%len(e.foreignChs)]
		e.gapRR++
		for id := 1; id <= maxID; id++ {
			if !snap.Visible(id) {
				continue
			}
			if e.Dep.ChannelOf(id) == ch {
				m, _ := e.metricAt(snap, id)
				e.store(id, t, m)
			}
		}
	}
	e.firstTick = false
}

// csiZeroFloorDB is what a zeroed cross-band estimate reads as: the
// estimator returned an all-zero channel, so the inferred sibling
// metric collapses to the measurement floor, far below any connect or
// trigger threshold.
const csiZeroFloorDB = -40

// visitCrossBand measures one cell per base station and estimates its
// co-sited siblings (paper §5.2/§6): intra-frequency anchor when
// available, otherwise the strongest cell of the site.
func (e *MeasEngine) visitCrossBand(t float64, snap *RadioSnap, servingCh int) {
	if !e.firstTick && t-e.lastIntra < e.Cfg.IntraPeriod {
		return
	}
	e.lastIntra = t
	e.firstTick = false
	csi := fault.CSIHealthy
	if e.Cfg.CSIFault != nil {
		csi = e.Cfg.CSIFault(t)
	}
	for _, bs := range e.Dep.BSs {
		// Pick the anchor: intra-frequency cell if the site has one
		// visible, else the first visible cell.
		var anchor *Cell
		for _, c := range bs.Cells {
			if !snap.Visible(c.ID) {
				continue
			}
			if c.Channel == servingCh {
				anchor = c
				break
			}
			if anchor == nil {
				anchor = c
			}
		}
		if anchor == nil {
			continue
		}
		m, _ := e.metricAt(snap, anchor.ID)
		e.store(anchor.ID, t, m)
		for _, sib := range bs.Cells {
			if sib.ID == anchor.ID {
				continue
			}
			sm, ok := e.metricAt(snap, sib.ID)
			if !ok {
				continue
			}
			switch csi {
			case fault.CSIStale:
				// Estimates freeze: the stored sibling value (if any)
				// keeps feeding the policy until the window passes.
				continue
			case fault.CSIZero:
				// Zeroed estimator output: bypass the L3 filter so the
				// inferred metric slams to the floor immediately.
				e.values[sib.ID] = measValue{metric: csiZeroFloorDB, measuredAt: t, valid: true}
				continue
			}
			// Cross-band estimate: true sibling metric plus the
			// estimation error of Algorithm 1 (Fig. 12 calibration).
			est := sm + e.rng.Gauss(0, e.Cfg.CrossBandErrStdDB)
			e.store(sib.ID, t, est)
		}
	}
}

// evaluate runs the policy rules over stored values and returns due
// reports (engine-owned scratch, valid until the next Tick).
func (e *MeasEngine) evaluate(t float64) []Report {
	serv := e.values[e.Serving]
	if !serv.valid {
		return nil
	}

	// A2 gate for multi-stage policies.
	for _, r := range e.Policy.Rules {
		if r.Type != policy.A2 || r.Stage != 0 {
			continue
		}
		if r.Satisfied(serv.metric, 0) {
			if e.a2Since < 0 {
				e.a2Since = t
			}
			if !e.a2Armed && t-e.a2Since >= r.TTTSec {
				e.a2Armed = true
				e.gapsActive = true
				e.gapsAt = t + e.Cfg.ReconfigRTT
				e.Rec.Record(obs.Event{T: t, Kind: obs.EvGapsArmed, Cell: e.Serving, Value: e.gapsAt})
			}
		} else {
			e.a2Since = -1
		}
	}
	// With cross-band estimation there is no gating: stage-1 rules are
	// always armed (Simplify already promotes them, but be safe).
	stageArmed := func(stage int) bool {
		if stage == 0 {
			return true
		}
		return e.a2Armed || e.Cfg.CrossBand
	}

	// The flat value table iterates in ascending cell-ID order — the
	// same deterministic order the sorted map keys produced.
	out := e.reports[:0]
	stride := len(e.values)
	for ri, r := range e.Policy.Rules {
		if !r.IsHandoverRule() || !stageArmed(r.Stage) {
			continue
		}
		ttt := e.tttSince[ri*stride : (ri+1)*stride]
		for _, cand := range e.ruleCands[ri] {
			id := int(cand.id)
			v := e.values[id]
			if !v.valid {
				continue
			}
			eff := r
			eff.OffsetDB = cand.offsetDB
			if eff.Satisfied(serv.metric, v.metric) {
				since := ttt[id]
				if since < 0 {
					ttt[id] = t
					since = t
				}
				rearm := r.TTTSec
				if e.Cfg.ReportIntervalSec > rearm {
					rearm = e.Cfg.ReportIntervalSec
				}
				if t-since >= r.TTTSec {
					out = append(out, Report{
						CellID:      id,
						Rule:        eff,
						Metric:      v.metric,
						ServMetric:  serv.metric,
						CriterionAt: since,
						ReadyAt:     t,
					})
					e.Trig.Inc()
					e.Rec.Record(obs.Event{T: t, Kind: obs.EvMeasTrigger, Cell: e.Serving, To: id, Value: v.metric})
					// Re-arm so a persisting condition re-reports
					// only after the report interval (3GPP
					// reportInterval), not every tick.
					ttt[id] = t + rearm - r.TTTSec
				}
			} else {
				ttt[id] = -1
			}
		}
	}
	e.reports = out
	return out
}
