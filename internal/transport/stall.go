package transport

import (
	"math"
	"sort"
)

// Outage is a radio service interruption, start-time + duration in
// simulated seconds. mobility.Result records its outages in this type,
// so a finished run replays through ReplayStalls directly.
type Outage struct {
	Start    float64
	Duration float64
}

// Stall is one RTO-extended link stall: the transport cannot deliver
// until the first exponentially backed-off retransmission after radio
// recovery, so the stall overshoots the outage by up to one RTO. The
// same model serves the transport plane's link stalls and the paper's
// Fig. 9 TCP stalls replayed over a run's radio outages.
type Stall struct {
	Start    float64 `json:"start"`
	Duration float64 `json:"duration"`
	// FinalRTO is the backoff value reached when transfer resumed.
	FinalRTO float64 `json:"final_rto"`
	// Retransmissions counts timer expirations during the stall.
	Retransmissions int `json:"retransmissions"`
}

// StallConfig holds the RTO recovery timer model.
type StallConfig struct {
	// BaseRTOSec is the retransmission timeout when the loss begins
	// (default 0.2).
	BaseRTOSec float64 `json:"base_rto_sec,omitempty"`
	// MaxRTOSec caps the exponential backoff (default 60, RFC 6298).
	MaxRTOSec float64 `json:"max_rto_sec,omitempty"`
}

// DefaultStallConfig returns the LTE-flavored timer parameters.
func DefaultStallConfig() StallConfig {
	return StallConfig{BaseRTOSec: 0.2, MaxRTOSec: 60}
}

func (c StallConfig) defaulted() StallConfig {
	if c.BaseRTOSec <= 0 {
		c.BaseRTOSec = 0.2
	}
	if c.MaxRTOSec <= 0 {
		c.MaxRTOSec = 60
	}
	if c.MaxRTOSec < c.BaseRTOSec {
		c.MaxRTOSec = c.BaseRTOSec
	}
	return c
}

// StallForOutage computes the stall produced by one radio outage:
// retransmissions fire at exponentially backed-off times from the
// outage start; the first one after radio recovery succeeds and ends
// the stall (paper §7.1: "TCP stalling time is usually longer than the
// network failures because of its retransmission timeout").
func StallForOutage(o Outage, cfg StallConfig) Stall {
	cfg = cfg.defaulted()
	if o.Duration <= 0 {
		return Stall{Start: o.Start}
	}
	rto := cfg.BaseRTOSec
	elapsed := 0.0
	n := 0
	for {
		next := elapsed + rto
		if next >= o.Duration {
			return Stall{Start: o.Start, Duration: next, FinalRTO: rto, Retransmissions: n + 1}
		}
		elapsed = next
		n++
		rto = math.Min(rto*2, cfg.MaxRTOSec)
	}
}

// ReplayStalls converts a set of radio outages into stalls. Outages
// are processed in start order; overlapping outages merge.
func ReplayStalls(outages []Outage, cfg StallConfig) []Stall {
	cfg = cfg.defaulted()
	merged := mergeOutages(outages)
	if len(merged) == 0 {
		return nil
	}
	out := make([]Stall, 0, len(merged))
	for _, o := range merged {
		out = append(out, StallForOutage(o, cfg))
	}
	return out
}

func mergeOutages(outages []Outage) []Outage {
	if len(outages) == 0 {
		return nil
	}
	os := append([]Outage(nil), outages...)
	sort.Slice(os, func(i, j int) bool { return os[i].Start < os[j].Start })
	out := []Outage{os[0]}
	for _, o := range os[1:] {
		last := &out[len(out)-1]
		if o.Start <= last.Start+last.Duration {
			end := math.Max(last.Start+last.Duration, o.Start+o.Duration)
			last.Duration = end - last.Start
			continue
		}
		out = append(out, o)
	}
	return out
}
