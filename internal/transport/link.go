package transport

import (
	"math"

	"rem/internal/sim"
)

const (
	// webRequestMbit / webThinkSec shape the web workload: fixed-size
	// responses separated by a fixed think time. Deterministic sizes
	// keep the RNG draw count independent of the workload.
	webRequestMbit = 0.5
	webThinkSec    = 1.0
	// queueLimitSec bounds the bottleneck queue at half a second of
	// line rate; the overflow is reported to the controller as loss.
	queueLimitSec = 0.5
	// lossRetxFrac is the fraction of an interval's payload a loss
	// event sends back into the queue for retransmission.
	lossRetxFrac = 0.05
)

// UE is one user's transport flow over its simulated radio link. Step
// it once per link interval (SNR sample + down fraction), then Finish
// to close any trailing outage and collect totals. Not safe for
// concurrent use; the fleet engine steps each UE on exactly one worker
// at a time.
type UE struct {
	spec Spec
	ctrl Controller
	rng  *sim.RNG

	t       float64
	rate    float64
	queue   float64 // Mbit waiting at the bottleneck
	rateSum float64

	inDown    bool
	downStart float64
	downAccum float64
	recoverAt float64

	// video workload
	bufferSec float64
	stalled   bool
	// web workload
	webPending float64
	webThink   float64

	stalls []Stall
	tot    Totals
}

// NewUE builds a flow from a (possibly zero-field) spec and its
// private link RNG stream.
func NewUE(spec Spec, rng *sim.RNG) *UE {
	spec = spec.Defaulted()
	u := &UE{spec: spec, ctrl: NewController(spec), rng: rng, rate: spec.StartRateMbps}
	if spec.Workload == WorkloadWeb {
		u.webPending = webRequestMbit
	}
	return u
}

// Step advances the flow over one link interval: snrDB is the
// serving-cell SNR at the interval start, downFrac the fraction of the
// interval the link was unusable (handover interruption, RLF outage).
// Exactly two RNG draws happen per call, before any branching, so the
// draw sequence never depends on link state.
func (u *UE) Step(snrDB, downFrac float64) {
	jitter := u.rng.Gauss(0, u.spec.JitterStdSec)
	lost := u.rng.Float64() < u.spec.LossRate

	dt := IntervalSec
	t := u.t
	if downFrac < 0 {
		downFrac = 0
	} else if downFrac > 1 {
		downFrac = 1
	}

	// Down-window tracking with StallForOutage's RTO semantics: a
	// contiguous down run becomes an Outage, and delivery stays blocked
	// until the first backed-off retransmission after recovery.
	if downFrac > 0 && !u.inDown {
		u.inDown = true
		u.downStart = t
		u.downAccum = 0
	}
	if u.inDown {
		u.downAccum += downFrac * dt
		u.tot.DownSec += downFrac * dt
		if downFrac < 1 {
			u.closeDown()
		}
	}

	capacity := capacityMbps(snrDB, u.spec.BandwidthMHz) * (1 - downFrac)
	// RTO recovery window: the fraction of this interval after the
	// next retransmission fires.
	avail := 1.0
	if t+dt <= u.recoverAt {
		avail = 0
	} else if t < u.recoverAt {
		avail = (t + dt - u.recoverAt) / dt
	}
	capEff := capacity * avail

	// Application offers load into the bottleneck queue. Video is a CBR
	// source: it never offers more than the encode rate, however much
	// headroom the controller has found.
	offered := u.rate * dt
	if u.spec.Workload == WorkloadVideo {
		offered = math.Min(u.rate, u.spec.VideoRateMbps) * dt
	}
	if u.spec.Workload == WorkloadWeb {
		if u.webPending <= 0 {
			u.webThink -= dt
			if u.webThink <= 0 {
				u.webPending = webRequestMbit
			} else {
				offered = 0
			}
		}
		if u.webPending > 0 && offered > u.webPending {
			offered = u.webPending
		}
	}
	u.queue += offered
	qLimit := math.Max(capacity*queueLimitSec, 1.0)
	overflow := false
	if u.queue > qLimit {
		u.queue = qLimit
		overflow = true
	}

	served := math.Min(u.queue, capEff*dt)
	u.queue -= served
	delivered := served
	if lost && served > 0 {
		retx := lossRetxFrac * served
		u.queue += retx
		delivered = served - retx
	}

	qDelay := math.Min(u.queue/math.Max(capEff, 0.1), 2.0)
	rtt := math.Max(u.spec.BaseRTTSec+qDelay+jitter, 0.001)

	fb := Feedback{
		DT: dt, SendMbps: u.rate, DeliveredMbps: served / dt,
		RTTSec: rtt, Lost: lost || overflow,
		Down: downFrac >= 0.5 || avail == 0,
	}
	u.rateSum += u.rate
	u.rate = u.ctrl.Update(fb)

	u.consume(delivered, dt)
	u.tot.Intervals++
	u.t += dt
}

// consume hands delivered payload to the application workload.
func (u *UE) consume(delivered, dt float64) {
	u.tot.DeliveredMbit += delivered
	switch u.spec.Workload {
	case WorkloadVideo:
		u.bufferSec += delivered / u.spec.VideoRateMbps
		if u.bufferSec >= dt {
			u.bufferSec -= dt
			u.stalled = false
		} else {
			short := dt - u.bufferSec
			u.bufferSec = 0
			if !u.stalled {
				u.tot.Rebuffers++
				u.stalled = true
			}
			u.tot.RebufferSec += short
		}
	case WorkloadWeb:
		if u.webPending > 0 {
			u.webPending -= delivered
			if u.webPending <= 0 {
				u.webPending = 0
				u.tot.WebCompleted++
				u.webThink = webThinkSec
			}
		}
	}
}

// closeDown ends the current down run: the accumulated outage becomes
// a Stall and delivery stays blocked until its RTO recovery point.
func (u *UE) closeDown() {
	u.inDown = false
	if u.downAccum <= 0 {
		return
	}
	st := StallForOutage(Outage{Start: u.downStart, Duration: u.downAccum}, u.spec.Stall)
	u.stalls = append(u.stalls, st)
	u.tot.Stalls++
	u.tot.StallSec += st.Duration
	u.recoverAt = u.downStart + st.Duration
}

// Finish closes a trailing down run (unclipped, mirroring how the
// mobility plane closes a trailing outage at run end) and returns the
// flow's totals.
func (u *UE) Finish() Totals {
	if u.inDown {
		u.closeDown()
	}
	if u.tot.Intervals > 0 {
		span := float64(u.tot.Intervals) * IntervalSec
		u.tot.GoodputMbps = u.tot.DeliveredMbit / span
		u.tot.MeanRateMbps = u.rateSum / float64(u.tot.Intervals)
	}
	return u.tot
}

// Stalls returns the RTO-extended link stalls recorded so far, in
// start order.
func (u *UE) Stalls() []Stall { return u.stalls }

// Totals returns the running totals (Goodput/MeanRate only valid
// after Finish).
func (u *UE) Totals() Totals { return u.tot }
