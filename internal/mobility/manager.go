// Package mobility implements the three-phase 4G/5G handover engine of
// paper Fig. 1a — triggering (measurement + TTT + feedback delivery),
// decision (policy evaluation at the serving cell), and execution
// (handover command delivery and target connection) — together with
// radio-link-failure detection and the paper's failure-cause taxonomy
// (Table 2: feedback delay/loss, missed cell, handover command loss,
// coverage hole). The same engine runs both the legacy stack and REM:
// the scenario wiring (measurement config, signaling transport, policy
// set, decision metric) decides which system is being simulated.
package mobility

import (
	"fmt"

	"rem/internal/fault"
	"rem/internal/geo"
	"rem/internal/obs"
	"rem/internal/policy"
	"rem/internal/ran"
	"rem/internal/rrc"
	"rem/internal/sim"
	"rem/internal/transport"
)

// FailureCause classifies a network failure per Table 2.
type FailureCause int

// Failure causes.
const (
	CauseNone         FailureCause = iota
	CauseFeedback                  // feedback delay/loss (§3.1)
	CauseMissedCell                // decision missed a viable cell (§3.2)
	CauseHOCmdLoss                 // handover command loss (§3.3)
	CauseCoverageHole              // no cell covers the area
)

// String names the cause.
func (c FailureCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseFeedback:
		return "feedback-delay/loss"
	case CauseMissedCell:
		return "missed-cell"
	case CauseHOCmdLoss:
		return "ho-cmd-loss"
	case CauseCoverageHole:
		return "coverage-hole"
	}
	return fmt.Sprintf("FailureCause(%d)", int(c))
}

// FailureEvent is one radio link failure with its classified cause.
type FailureEvent struct {
	Time    float64
	Serving int
	Cause   FailureCause
}

// Config holds the engine's timing and threshold parameters.
type Config struct {
	TickSec        float64 // simulation tick (default 0.01)
	ServeFloorDB   float64 // serving SNR below this counts out-of-sync (default −6, Qout)
	ConnectFloorDB float64 // target must exceed this to connect (default −6)
	RLFTimeoutSec  float64 // continuous out-of-sync before RLF (default 0.5, T310-flavored)
	HOInterruptSec float64 // service interruption per handover (default 0.05)
	DecisionSec    float64 // serving-cell decision processing (default 0.015)
	ReestablishSec float64 // radio re-establishment after RLF (default 1.5)
	// MissedCellMarginDB: a cell this far above the connect floor that
	// was never measurable counts as "missed" (default 6).
	MissedCellMarginDB float64
	// FullSnapshotInOutage disables every deferred-conversion fast
	// path: snapshots are eagerly materialized on all ticks (attached
	// and blacked out), not just where a value is read. The lazy path
	// is draw-for-draw and bit-for-bit identical (mobility and fleet
	// tests assert equality between both settings); this knob exists so
	// those tests — and anyone auditing the determinism argument — can
	// force the always-step path.
	FullSnapshotInOutage bool
}

// DefaultConfig returns standard-flavored timings.
func DefaultConfig() Config {
	return Config{
		TickSec:            0.01,
		ServeFloorDB:       -2,
		ConnectFloorDB:     -6,
		RLFTimeoutSec:      0.5,
		HOInterruptSec:     0.05,
		DecisionSec:        0.05,
		ReestablishSec:     1.5,
		MissedCellMarginDB: 6,
	}
}

// Candidate is one prospective handover target extracted from a
// delivered measurement report, offered to a Scenario's SelectTarget
// hook.
type Candidate struct {
	CellID  int
	Metric  float64 // reported value (RSRP dBm or DD-SNR dB)
	Trigger policy.EventType
}

// Scenario wires a full run: deployment, radio, policies, transport.
type Scenario struct {
	Dep      *ran.Deployment
	Env      *ran.RadioEnv
	Policies map[int]*policy.Policy
	Link     *ran.LinkModel
	MeasCfg  ran.MeasConfig
	Traj     geo.Path
	Cfg      Config
	// OTFSSignaling routes all mobility signaling through REM's
	// delay-Doppler overlay (§5.1) instead of the legacy OFDM PHY.
	OTFSSignaling bool
	// InitialCell pins the starting serving cell; 0 attaches to the
	// strongest cell at t = 0.
	InitialCell int
	Duration    float64 // seconds
	// SelectTarget, when non-nil, lets the serving network pick the
	// handover target from the delivered report's candidates (sorted
	// best-first) instead of always taking the strongest — the hook the
	// fleet engine uses for load-dependent admission. Returning ok =
	// false defers the handover (no command is issued this report; the
	// client re-reports on its normal cadence). The hook must be
	// deterministic for a given (t, serving, cands) to preserve the
	// byte-determinism contract.
	SelectTarget func(t float64, serving int, cands []Candidate) (target int, ok bool)
	// Faults is the run's fault injector (nil = no fault plane). The
	// runner consults it on every signaling delivery (transport-level
	// drop/delay/corruption on top of the PHY outcome); cell outages
	// and CSI faults from the same injector are wired into the
	// RadioEnv and MeasConfig hooks by the scenario builder. The
	// injector is owned by this scenario's single stepping goroutine.
	Faults *fault.Injector
	// RecordLink arms per-interval link availability recording for the
	// transport plane: Result.LinkDown gains one down-fraction sample
	// per SNR trace interval. Recording draws no randomness and costs
	// one counter per tick, so disarmed runs are byte-identical.
	RecordLink bool
	// Obs, when non-nil, arms the observability plane for this run:
	// the scope's recorder receives the handover-lifecycle timeline
	// and its metrics shard the canonical rem_* counters/histograms.
	// nil (the default) compiles to no-ops on every hot path; arming
	// draws no randomness, so results are byte-identical either way.
	Obs *obs.UEScope
}

// Result aggregates everything the evaluation needs.
type Result struct {
	Duration  float64
	Handovers []policy.HandoverRecord
	Failures  []FailureEvent
	Outages   []transport.Outage // service interruptions, for the TCP stall replay

	// FeedbackDelays are end-to-end triggering delays (criterion true →
	// report delivered), Fig. 2a / Fig. 14a. FeedbackDelaysInter is the
	// inter-frequency subset (reports for a cell on another carrier),
	// the multi-band measurement latency the paper's Fig. 2a isolates.
	FeedbackDelays      []float64
	FeedbackDelaysInter []float64
	// FeedbackFirstBLER / CmdFirstBLER are first-attempt block error
	// probabilities of uplink reports and downlink commands, with the
	// simulation times they occurred at (Fig. 2b filters these to a
	// window before each network failure).
	FeedbackFirstBLER []float64
	FeedbackBLERAt    []float64
	CmdFirstBLER      []float64
	CmdBLERAt         []float64
	// SNRTrace samples the serving cell's instantaneous OFDM SNR (dB)
	// every SNRTraceStep seconds — the physical-layer view Fig. 2b's
	// pre-failure block error rates are computed from.
	SNRTrace     []float64
	SNRTraceStep float64
	// LinkDown (recorded only when Scenario.RecordLink is set) is the
	// fraction of each SNR trace interval the radio link was unusable —
	// RLF/re-establishment outage or handover interruption. Entry k
	// covers the interval between SNRTrace[k] and SNRTrace[k+1], so
	// len(LinkDown) == len(SNRTrace)-1 when the run ends on a trace
	// boundary. The transport plane derives its outage windows from it.
	LinkDown []float64
	// GapActiveSec is total time with inter-frequency measurement gaps
	// armed (spectrum overhead accounting, §3.2).
	GapActiveSec float64
	// ReportsDelivered / ReportsLost count uplink feedback outcomes.
	ReportsDelivered, ReportsLost int
	// CmdsDelivered / CmdsLost count handover command outcomes.
	CmdsDelivered, CmdsLost int
	// Injected-fault accounting (all zero without a fault plane).
	// Transport drops and corruptions are also counted in the
	// corresponding Lost totals above; these break out the share the
	// injector caused rather than the PHY.
	ReportsFaultDropped, ReportsCorrupted int
	CmdsFaultDropped, CmdsCorrupted       int
}

// FaultLosses returns the total signaling losses the fault plane
// injected (transport drops plus corruptions fatal to the codec).
func (r *Result) FaultLosses() int {
	return r.ReportsFaultDropped + r.ReportsCorrupted + r.CmdsFaultDropped + r.CmdsCorrupted
}

// HandoverCount returns the number of executed handovers.
func (r *Result) HandoverCount() int { return len(r.Handovers) }

// FailureRatio returns failures / (handovers + failures): the paper's
// per-handover-event failure metric.
func (r *Result) FailureRatio() float64 {
	total := len(r.Handovers) + len(r.Failures)
	if total == 0 {
		return 0
	}
	return float64(len(r.Failures)) / float64(total)
}

// CauseCounts tallies failures by cause.
func (r *Result) CauseCounts() map[FailureCause]int {
	out := make(map[FailureCause]int)
	for _, f := range r.Failures {
		out[f.Cause]++
	}
	return out
}

// pendingCmd tracks one in-flight handover command.
type pendingCmd struct {
	target  int
	sendAt  float64 // decision delay elapsed
	trigger policy.EventType
}

// Runner executes a scenario tick by tick and can be driven
// incrementally: StepTo advances the client to a simulated time and
// returns, preserving all engine state, so many Runners can be
// interleaved (the fleet engine steps thousands of them in epochs).
// A Runner is single-goroutine; different Runners are independent as
// long as they do not share a Scenario's Env, Link or Streams.
//
// Runner is a value type by design: a fleet packs its runners into one
// contiguous slice (struct-of-arrays epoch stepping) via InitRunner.
type Runner struct {
	sc  *Scenario
	cfg Config
	res *Result

	measRNG *sim.RNG
	engine  *ran.MeasEngine
	obs     *runnerObs

	serving        int
	outOfSyncSince float64
	cmd            pendingCmd
	cmdPending     bool
	lastCmdFailed  float64 // time of last lost handover command
	inOutage       bool
	outageStart    float64
	reestablishAt  float64
	// Transport-plane link recording (Scenario.RecordLink): ticks of
	// the current trace interval the link was down, and the end of the
	// current handover interruption.
	downTicks   int
	hoDownUntil float64

	multiChannel bool // more than one deployed carrier (cached)

	// cands is the decision phase's reusable candidate scratch;
	// fallbackPol backs serving cells without an explicit policy so a
	// handover to one does not allocate.
	cands        []Candidate
	fallbackPol  policy.Policy
	fallbackRule [1]policy.Rule

	i, steps, traceEvery int
	finished             bool
}

// NewRunner validates the scenario, performs the initial attach and
// returns a Runner positioned at t = 0 with no ticks processed.
func NewRunner(streams sim.StreamSource, sc *Scenario) (*Runner, error) {
	r := new(Runner)
	if err := InitRunner(r, streams, sc); err != nil {
		return nil, err
	}
	return r, nil
}

// InitRunner initializes a Runner in place — the entry point fleet
// engines use to build a contiguous []Runner without one heap object
// per UE. The previous contents of r are discarded.
func InitRunner(r *Runner, streams sim.StreamSource, sc *Scenario) error {
	if sc.Duration <= 0 {
		return fmt.Errorf("mobility: non-positive duration")
	}
	cfg := sc.Cfg
	if cfg.TickSec <= 0 {
		cfg = DefaultConfig()
	}
	// The measurement stream draws a few raw words per tick (RSRP noise
	// Gauss draws, report loss Bernoullis); 6/tick plus slack bounds it
	// comfortably. The budget is a residency hint for arena-backed
	// factories — exceeding it is transparent (sim.ArenaStreams) — and
	// eager factories ignore it.
	measBudget := 6*(int(sc.Duration/cfg.TickSec)+1) + 16
	*r = Runner{
		sc:             sc,
		cfg:            cfg,
		res:            &Result{Duration: sc.Duration, SNRTraceStep: 0.1},
		measRNG:        streams.StreamBudget("mobility.meas", measBudget),
		outOfSyncSince: -1,
		lastCmdFailed:  -100,
		multiChannel:   len(sc.Dep.Channels()) > 1,
	}

	// Initial attach: pinned cell if configured, else best at t=0.
	snap := sc.Env.Snapshot(sc.Traj.At(0), 0)
	r.serving = sc.InitialCell
	if r.serving == 0 {
		best, _, ok := ran.BestCell(snap, !sc.MeasCfg.UseDDSNR, -999)
		if !ok {
			return fmt.Errorf("mobility: no cell visible at start")
		}
		r.serving = best
	} else if !snap.Visible(r.serving) {
		return fmt.Errorf("mobility: initial cell %d not visible at start", r.serving)
	}
	r.obs = newRunnerObs(sc.Obs)
	if o := r.obs; o != nil {
		o.rec.Record(obs.Event{T: 0, Kind: obs.EvAttach, To: r.serving})
	}
	r.newEngine(r.serving)

	r.steps = int(sc.Duration/cfg.TickSec) + 1
	r.traceEvery = int(r.res.SNRTraceStep/cfg.TickSec + 0.5)
	if r.traceEvery < 1 {
		r.traceEvery = 1
	}
	// The SNR trace has a known exact bound; sizing it upfront keeps
	// steady-state epoch stepping allocation-free.
	r.res.SNRTrace = make([]float64, 0, (r.steps-1)/r.traceEvery+1)
	if sc.RecordLink {
		r.res.LinkDown = make([]float64, 0, (r.steps-1)/r.traceEvery)
	}
	return nil
}

// Now returns the simulated time of the next unprocessed tick.
func (r *Runner) Now() float64 { return float64(r.i) * r.cfg.TickSec }

// Serving returns the current serving cell.
func (r *Runner) Serving() int { return r.serving }

// Attached reports whether the client currently has a radio link (it
// is false during post-RLF re-establishment outages).
func (r *Runner) Attached() bool { return !r.inOutage }

// Done reports whether every tick of the scenario has been processed.
func (r *Runner) Done() bool { return r.i >= r.steps }

// Result exposes the accumulating result. Callers may read it between
// StepTo calls (e.g. to stream out newly appended handovers/failures)
// but must not mutate it before Finish.
func (r *Runner) Result() *Result { return r.res }

func (r *Runner) newEngine(cell int) {
	sc := r.sc
	pol := sc.Policies[cell]
	if pol == nil {
		// A cell without an explicit policy gets a plain A3, built into
		// runner-owned storage so repeat handovers do not allocate.
		r.fallbackRule[0] = policy.Rule{Type: policy.A3, OffsetDB: 3, TTTSec: 0.08}
		r.fallbackPol = policy.Policy{CellID: cell, Channel: sc.Dep.ChannelOf(cell),
			Rules: r.fallbackRule[:]}
		pol = &r.fallbackPol
	}
	if r.engine == nil {
		r.engine = ran.NewMeasEngine(r.measRNG, sc.Dep, pol, cell, sc.MeasCfg)
	} else {
		// 3GPP resets measurement state on reconfiguration; Reset does
		// exactly that over the same flat state and RNG stream.
		r.engine.Reset(pol, cell)
	}
	if o := r.obs; o != nil {
		r.engine.Rec = o.rec
		r.engine.Trig = o.measTriggers
	}
}

func (r *Runner) classify(t float64, snap *ran.RadioSnap) FailureCause {
	cfg, sc := r.cfg, r.sc
	// Coverage hole: nothing connectable anywhere.
	_, _, any := ran.BestCell(snap, false, cfg.ConnectFloorDB)
	if !any {
		return CauseCoverageHole
	}
	// Execution failure: a handover command is in flight or was
	// recently lost (paper §3.3).
	if r.cmdPending || t-r.lastCmdFailed < 2.0 {
		return CauseHOCmdLoss
	}
	// Decision failure: a strong cell exists but the multi-stage
	// policy has not (or only just) armed the inter-frequency
	// measurements that would surface it (paper §3.2).
	if _, _, strong := ran.BestCell(snap, false, cfg.ConnectFloorDB+cfg.MissedCellMarginDB); strong {
		if r.engine != nil && r.multiChannel && !sc.MeasCfg.CrossBand &&
			!r.engine.GapsActive(t-1.0) {
			return CauseMissedCell
		}
	}
	// Triggering failure: feedback delayed or lost (paper §3.1).
	return CauseFeedback
}

func (r *Runner) connectTo(t float64, target int, trigger policy.EventType, snap *ran.RadioSnap) bool {
	cfg, sc, res := r.cfg, r.sc, r.res
	tcr, ok := snap.Get(target)
	if !ok || tcr.DDSNR < cfg.ConnectFloorDB {
		return false
	}
	from := r.serving
	res.Handovers = append(res.Handovers, policy.HandoverRecord{
		Time: t, From: from, To: target,
		FromChannel: sc.Dep.ChannelOf(from), ToChannel: sc.Dep.ChannelOf(target),
		TriggerType: trigger, DisruptionSec: cfg.HOInterruptSec,
	})
	res.Outages = append(res.Outages, transport.Outage{Start: t, Duration: cfg.HOInterruptSec})
	r.hoDownUntil = t + cfg.HOInterruptSec
	if o := r.obs; o != nil {
		o.handovers.Inc()
		o.rec.Record(obs.Event{T: t, Kind: obs.EvComplete, Cell: from, To: target})
	}
	r.serving = target
	r.newEngine(r.serving)
	r.cmdPending = false
	r.outOfSyncSince = -1
	return true
}

// tick processes one simulation step.
func (r *Runner) tick(t float64) {
	cfg, sc, res := r.cfg, r.sc, r.res
	pos := sc.Traj.At(t)
	onTrace := r.i%r.traceEvery == 0

	if sc.RecordLink {
		// Flush the previous interval's down fraction on each trace
		// boundary, then count this tick against the new interval using
		// the state the tick begins in.
		if onTrace && r.i > 0 {
			res.LinkDown = append(res.LinkDown, float64(r.downTicks)/float64(r.traceEvery))
			r.downTicks = 0
		}
		if r.inOutage || t < r.hoDownUntil {
			r.downTicks++
		}
	}

	if r.inOutage {
		// Blacked-out fast path: advance every radio process through
		// the identical draw sequence; the lazy snapshot skips the
		// per-cell SINR math a detached client never reads. Reattach
		// needs DDSNR only; the SNR trace fills the (former) serving
		// cell alone.
		snap := sc.Env.SnapshotDD(pos, t, r.serving)
		if cfg.FullSnapshotInOutage {
			snap.FillAll()
		}
		if onTrace {
			res.SNRTrace = append(res.SNRTrace, scrSNR(snap, r.serving))
		}
		if t >= r.reestablishAt {
			if best, _, ok := ran.BestCell(snap, false, cfg.ConnectFloorDB); ok {
				res.Outages = append(res.Outages, transport.Outage{Start: r.outageStart, Duration: t - r.outageStart})
				if o := r.obs; o != nil {
					d := t - r.outageStart
					o.blackout.Observe(d)
					o.rec.Record(obs.Event{T: t, Kind: obs.EvBlackoutClose, To: best, Value: d})
					o.reattaches.Inc()
					o.rec.Record(obs.Event{T: t, Kind: obs.EvAttach, To: best, Cause: "reattach"})
				}
				r.inOutage = false
				r.serving = best
				r.newEngine(r.serving)
				r.outOfSyncSince = -1
				r.cmdPending = false
			}
		}
		return
	}

	snap := sc.Env.Snapshot(pos, t)
	if cfg.FullSnapshotInOutage {
		snap.FillAll()
	}
	if onTrace {
		res.SNRTrace = append(res.SNRTrace, scrSNR(snap, r.serving))
	}

	if r.engine.GapsActive(t) {
		res.GapActiveSec += cfg.TickSec
	}

	// Radio-link monitoring.
	scr, visible := snap.Get(r.serving)
	if !visible || scr.SNR < cfg.ServeFloorDB {
		if r.outOfSyncSince < 0 {
			r.outOfSyncSince = t
		}
		if t-r.outOfSyncSince >= cfg.RLFTimeoutSec {
			cause := r.classify(t, snap)
			res.Failures = append(res.Failures, FailureEvent{
				Time: t, Serving: r.serving, Cause: cause,
			})
			if o := r.obs; o != nil {
				o.failure(cause)
				// Attribute the blackout to an injected outage window
				// when the serving cell is inside one (the faultsweep ↔
				// timeline seam: OutageWindow draws no randomness).
				w := sc.Faults.OutageWindow(r.serving, t)
				fclass := ""
				if w > 0 {
					fclass = obs.FaultOutage
				}
				o.rec.Record(obs.Event{T: t, Kind: obs.EvRLF, Cell: r.serving,
					Cause: cause.String(), Fault: fclass, Window: w})
				o.rec.Record(obs.Event{T: t, Kind: obs.EvBlackoutOpen, Cell: r.serving,
					Fault: fclass, Window: w})
			}
			r.inOutage = true
			r.outageStart = t
			r.reestablishAt = t + cfg.ReestablishSec
			return
		}
	} else {
		r.outOfSyncSince = -1
	}

	// Execution phase: pending handover command.
	if r.cmdPending && t >= r.cmd.sendAt {
		// Handover commands are much larger RRC blocks than
		// measurement reports (full target configuration). On the
		// legacy PHY the narrow signaling allocation must squeeze
		// them in at a higher effective rate — several dB more
		// link margin (the paper's Fig. 2b: downlink commands fail
		// at 30.3% vs uplink 9.9%). REM's scheduling-based overlay
		// sizes the OTFS subgrid by message volume (§6), so the
		// per-symbol operating point is unchanged.
		var del ran.Delivery
		if sc.OTFSSignaling {
			del = sc.Link.DeliverOTFS(scrDD(snap, r.serving), false)
		} else {
			del = sc.Link.DeliverLegacy(scrSNR(snap, r.serving)-sc.Link.Cfg.CmdExtraDB,
				scrDD(snap, r.serving)-sc.Link.Cfg.CmdExtraDB, false)
		}
		res.CmdFirstBLER = append(res.CmdFirstBLER, del.FirstBLER)
		res.CmdBLERAt = append(res.CmdBLERAt, t)
		// Transport-level injected faults compose on top of the PHY
		// outcome: a command must survive both.
		fclass, fwin := "", 0
		if del.OK && sc.Faults != nil {
			switch v := sc.Faults.Signaling(t, fault.MsgCommand); {
			case v.Drop:
				del.OK = false
				res.CmdsFaultDropped++
				fclass, fwin = v.Class, v.Window
				if o := r.obs; o != nil {
					o.faultDropped.Inc()
				}
			case v.Corrupt && !r.commandSurvivesCorruption(r.cmd.target):
				del.OK = false
				res.CmdsCorrupted++
				fclass, fwin = v.Class, v.Window
				if o := r.obs; o != nil {
					o.faultCorrupted.Inc()
				}
			case v.ExtraDelay > 0:
				// Transport delay: the command arrives later; retry
				// this delivery once the extra latency has elapsed.
				r.cmd.sendAt = t + v.ExtraDelay
				if o := r.obs; o != nil {
					o.faultDelayed.Inc()
					o.rec.Record(obs.Event{T: t, Kind: obs.EvFault, Cell: r.serving,
						To: r.cmd.target, Value: v.ExtraDelay, Fault: v.Class, Window: v.Window})
				}
				return
			}
		}
		if del.OK {
			res.CmdsDelivered++
			if o := r.obs; o != nil {
				o.cmdsOK.Inc()
				o.rec.Record(obs.Event{T: t, Kind: obs.EvCmd, Cell: r.serving, To: r.cmd.target})
			}
			r.connectTo(t, r.cmd.target, r.cmd.trigger, snap)
		} else {
			res.CmdsLost++
			if o := r.obs; o != nil {
				o.cmdsLost.Inc()
				o.rec.Record(obs.Event{T: t, Kind: obs.EvCmdLost, Cell: r.serving,
					To: r.cmd.target, Fault: fclass, Window: fwin})
			}
			r.lastCmdFailed = t
			r.cmdPending = false // serving cell will retry on next report
		}
		return
	}

	// Triggering phase: measurement reports.
	reports := r.engine.Tick(t, snap)
	if len(reports) == 0 {
		return
	}
	// Pick the best report (highest metric) for decision.
	best := reports[0]
	for _, rp := range reports[1:] {
		if rp.Metric > best.Metric {
			best = rp
		}
	}
	var del ran.Delivery
	if sc.OTFSSignaling {
		del = sc.Link.DeliverOTFS(scrDD(snap, r.serving), true)
	} else {
		del = sc.Link.DeliverLegacy(scrSNR(snap, r.serving), scrDD(snap, r.serving), true)
	}
	res.FeedbackFirstBLER = append(res.FeedbackFirstBLER, del.FirstBLER)
	res.FeedbackBLERAt = append(res.FeedbackBLERAt, t)
	fclass, fwin := "", 0
	if del.OK && sc.Faults != nil {
		switch v := sc.Faults.Signaling(t, fault.MsgReport); {
		case v.Drop:
			del.OK = false
			res.ReportsFaultDropped++
			fclass, fwin = v.Class, v.Window
			if o := r.obs; o != nil {
				o.faultDropped.Inc()
			}
		case v.Corrupt && !r.reportSurvivesCorruption(best.CellID, best.Metric):
			del.OK = false
			res.ReportsCorrupted++
			fclass, fwin = v.Class, v.Window
			if o := r.obs; o != nil {
				o.faultCorrupted.Inc()
			}
		default:
			del.Delay += v.ExtraDelay
			if v.ExtraDelay > 0 {
				if o := r.obs; o != nil {
					o.faultDelayed.Inc()
					o.rec.Record(obs.Event{T: t, Kind: obs.EvFault, Cell: r.serving,
						To: best.CellID, Value: v.ExtraDelay, Fault: v.Class, Window: v.Window})
				}
			}
		}
	}
	if !del.OK {
		res.ReportsLost++
		if o := r.obs; o != nil {
			o.reportsLost.Inc()
			o.rec.Record(obs.Event{T: t, Kind: obs.EvReportLost, Cell: r.serving,
				To: best.CellID, Fault: fclass, Window: fwin})
		}
		return
	}
	res.ReportsDelivered++
	delay := (t - best.CriterionAt) + del.Delay
	res.FeedbackDelays = append(res.FeedbackDelays, delay)
	if o := r.obs; o != nil {
		o.reportsOK.Inc()
		o.feedbackDelay.Observe(delay)
		o.rec.Record(obs.Event{T: t, Kind: obs.EvMeasReport, Cell: r.serving,
			To: best.CellID, Value: delay})
	}
	if tc := sc.Dep.CellByID(best.CellID); tc != nil {
		if scell := sc.Dep.CellByID(r.serving); scell != nil && tc.Channel != scell.Channel {
			res.FeedbackDelaysInter = append(res.FeedbackDelaysInter, delay)
		}
	}

	// Decision phase: the serving cell picks the target — the best
	// reported cell, unless a SelectTarget hook (load-aware admission)
	// overrides or defers the choice.
	if !r.cmdPending {
		target, trigger, ok := best.CellID, best.Rule.Type, true
		if sc.SelectTarget != nil {
			cands := r.cands[:0]
			for _, rp := range reports {
				cands = append(cands, Candidate{CellID: rp.CellID, Metric: rp.Metric, Trigger: rp.Rule.Type})
			}
			r.cands = cands
			sortCandidates(cands)
			target, ok = sc.SelectTarget(t, r.serving, cands)
			if ok {
				trigger = best.Rule.Type
				for _, c := range cands {
					if c.CellID == target {
						trigger = c.Trigger
						break
					}
				}
			}
		}
		if ok {
			r.cmd = pendingCmd{
				target:  target,
				sendAt:  t + cfg.DecisionSec,
				trigger: trigger,
			}
			r.cmdPending = true
			if o := r.obs; o != nil {
				o.rec.Record(obs.Event{T: t, Kind: obs.EvDecision, Cell: r.serving, To: target})
			}
		} else if o := r.obs; o != nil {
			o.deferrals.Inc()
			o.rec.Record(obs.Event{T: t, Kind: obs.EvDeferred, Cell: r.serving, To: best.CellID})
		}
	}
}

// sortCandidates orders candidates best-first — metric descending,
// cell ID ascending — by stable insertion (candidate lists are a
// handful of entries; this replaces an allocating reflective sort on
// the per-report hot path).
func sortCandidates(cands []Candidate) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && candLess(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

func candLess(a, b Candidate) bool {
	if a.Metric != b.Metric {
		return a.Metric > b.Metric
	}
	return a.CellID < b.CellID
}

// cmdConfigWords is the representative RRCConnectionReconfiguration
// payload used when round-tripping an injected-corruption command.
const cmdConfigWords = 20

// reportSurvivesCorruption round-trips the delivered measurement report
// through the RRC codec with injector-flipped bits. The report survives
// only when the garbled bits decode back to the identical message — the
// codec-level stand-in for an integrity check (flips that cancel out
// leave the message intact; anything else is rejected by the receiver).
func (r *Runner) reportSurvivesCorruption(cellID int, metric float64) bool {
	msg := &rrc.MeasurementReport{
		Serving: rrc.MeasEntry{CellID: uint16(r.serving)},
		Entries: []rrc.MeasEntry{{CellID: uint16(cellID), Value: metric}},
	}
	return survivesCorruption(r.sc.Faults, msg)
}

// commandSurvivesCorruption is the downlink twin: a handover command
// with a representative configuration block.
func (r *Runner) commandSurvivesCorruption(target int) bool {
	msg := &rrc.HandoverCommand{
		TargetCell:  uint16(target),
		ConfigWords: make([]uint16, cmdConfigWords),
	}
	return survivesCorruption(r.sc.Faults, msg)
}

type rrcEncoder interface{ Encode() ([]byte, error) }

func survivesCorruption(inj *fault.Injector, msg rrcEncoder) bool {
	orig, err := msg.Encode()
	if err != nil {
		return true // cannot model corruption; treat transport as clean
	}
	garbled := inj.CorruptBits(append([]byte(nil), orig...))
	dec, err := rrc.Decode(garbled)
	if err != nil {
		return false
	}
	enc, ok := dec.(rrcEncoder)
	if !ok {
		return false
	}
	re, err := enc.Encode()
	if err != nil || len(re) != len(orig) {
		return false
	}
	for i := range re {
		if re[i] != orig[i] {
			return false
		}
	}
	return true
}

// StepTo processes every tick with simulated time <= t (and within the
// scenario duration). It is a no-op when t is behind the clock.
func (r *Runner) StepTo(t float64) {
	for r.i < r.steps {
		tt := float64(r.i) * r.cfg.TickSec
		if tt > t {
			return
		}
		r.tick(tt)
		r.i++
	}
}

// Finish closes out the run (recording a trailing outage if the client
// ended detached) and returns the result. The Runner must have been
// stepped to completion; Finish steps any remainder itself.
func (r *Runner) Finish() *Result {
	r.StepTo(r.sc.Duration)
	if !r.finished {
		r.finished = true
		if r.inOutage {
			r.res.Outages = append(r.res.Outages, transport.Outage{Start: r.outageStart, Duration: r.sc.Duration - r.outageStart})
			if o := r.obs; o != nil {
				d := r.sc.Duration - r.outageStart
				o.blackout.Observe(d)
				o.rec.Record(obs.Event{T: r.sc.Duration, Kind: obs.EvBlackoutClose,
					Cause: "run-end", Value: d})
			}
		}
	}
	return r.res
}

// Run executes the scenario tick by tick to completion.
func Run(streams sim.StreamSource, sc *Scenario) (*Result, error) {
	r, err := NewRunner(streams, sc)
	if err != nil {
		return nil, err
	}
	return r.Finish(), nil
}

func scrSNR(snap *ran.RadioSnap, id int) float64 {
	if cr, ok := snap.Get(id); ok {
		return cr.SNR
	}
	return -30
}

func scrDD(snap *ran.RadioSnap, id int) float64 {
	if dd, ok := snap.DD(id); ok {
		return dd
	}
	return -30
}

// StepBatch advances a batch of runners (selected by index into rs) to
// simulated time t — the fleet's cache-friendly epoch stepping entry
// point: runners are contiguous in rs, and a worker walks its batch in
// index order. Each runner still steps independently; batching changes
// memory traversal, never results.
func StepBatch(rs []Runner, idx []int32, t float64) {
	for _, i := range idx {
		rs[i].StepTo(t)
	}
}
