// Package ran models the radio access network substrate of the
// evaluation: cells and multi-band base stations deployed along a rail
// line, the radio environment seen by a moving client (path loss,
// correlated shadowing, fast fading, Doppler ICI), the HARQ signaling
// link with SINR-dependent block errors, and the sequential
// measurement schedule (intra-frequency scans, inter-frequency
// measurement gaps, TimeToTrigger) whose latency drives the paper's
// triggering-phase failures (§3.1).
package ran

import (
	"fmt"
	"sort"

	"rem/internal/geo"
	"rem/internal/sim"
)

// Cell is one 4G/5G cell: a carrier on a base station.
type Cell struct {
	ID           int
	Channel      int     // EARFCN-like channel number
	FreqHz       float64 // carrier frequency
	BandwidthMHz float64
	TxPowerDBm   float64 // reference-signal transmit power per RE
	BS           *BaseStation
}

// BaseStation hosts one or more co-sited cells on different bands
// (paper §3.1: 53.4% of dataset cells share a base station — the
// physical basis for cross-band estimation).
type BaseStation struct {
	ID    int
	Pos   geo.Point
	Cells []*Cell
	idx   int // index in the deployment's BSs
}

// Deployment is the full cell layout along the track.
type Deployment struct {
	BSs      []*BaseStation
	Cells    []*Cell
	cellByID map[int]*Cell
	chanByID []int   // dense channel index (cell IDs start at 1)
	cellIdx  []int32 // dense cell ID → index in Cells
}

// CellByID resolves a cell, or nil.
func (d *Deployment) CellByID(id int) *Cell { return d.cellByID[id] }

// MaxCellID returns the highest cell ID in the deployment (IDs are
// dense from 1, so this also sizes per-cell flat state).
func (d *Deployment) MaxCellID() int { return len(d.chanByID) - 1 }

// ChannelOf returns cell id's channel without a map lookup (0 when the
// id is unknown) — the hot-path companion of CellByID.
func (d *Deployment) ChannelOf(id int) int {
	if id >= 0 && id < len(d.chanByID) {
		return d.chanByID[id]
	}
	if c := d.cellByID[id]; c != nil {
		return c.Channel
	}
	return 0
}

// buildIndex (re)derives the dense per-ID lookups from d.Cells.
func (d *Deployment) buildIndex() {
	maxID := 0
	for _, c := range d.Cells {
		if c.ID > maxID {
			maxID = c.ID
		}
	}
	d.chanByID = make([]int, maxID+1)
	d.cellIdx = make([]int32, maxID+1)
	for i, c := range d.Cells {
		d.chanByID[c.ID] = c.Channel
		d.cellIdx[c.ID] = int32(i)
	}
	for i, bs := range d.BSs {
		bs.idx = i
	}
}

// Channels returns the sorted distinct channel numbers in use.
func (d *Deployment) Channels() []int {
	seen := map[int]bool{}
	for _, c := range d.Cells {
		seen[c.Channel] = true
	}
	var out []int
	for ch := range seen {
		out = append(out, ch)
	}
	sort.Ints(out)
	return out
}

// CoSited reports whether any base station hosts cells on both
// channels (used by REM's policy simplification).
func (d *Deployment) CoSited(chA, chB int) bool {
	if chA == chB {
		return true
	}
	for _, bs := range d.BSs {
		hasA, hasB := false, false
		for _, c := range bs.Cells {
			if c.Channel == chA {
				hasA = true
			}
			if c.Channel == chB {
				hasB = true
			}
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// CoSitedCellFraction returns the fraction of cells sharing their base
// station with at least one other cell (the paper reports 53.4%).
func (d *Deployment) CoSitedCellFraction() float64 {
	if len(d.Cells) == 0 {
		return 0
	}
	shared := 0
	for _, bs := range d.BSs {
		if len(bs.Cells) > 1 {
			shared += len(bs.Cells)
		}
	}
	return float64(shared) / float64(len(d.Cells))
}

// BandConfig describes one deployed carrier.
type BandConfig struct {
	Channel      int
	FreqHz       float64
	BandwidthMHz float64
	TxPowerDBm   float64
}

// DeploymentConfig drives the linear deployment builder.
type DeploymentConfig struct {
	Plan geo.SitePlan
	// Bands lists the carriers; Bands[0] is the anchor band present at
	// every site. Each further band is added per site with probability
	// CoSitedProb.
	Bands       []BandConfig
	CoSitedProb float64
	// PosJitterM perturbs each site's along-track position uniformly in
	// ±PosJitterM, and PowerJitterDB perturbs each site's transmit
	// power uniformly in ±PowerJitterDB — real deployments are not
	// regular, and the irregular boundaries are where failures
	// concentrate.
	PosJitterM    float64
	PowerJitterDB float64
	// AlternateAnchor switches the anchor band between Bands[0] and
	// Bands[1] with probability AnchorSwitchProb per consecutive site —
	// the HSR frequency-planning practice that makes a large share of
	// boundary handovers inter-frequency (paper §3.2's multi-stage
	// pain) while leaving same-band stretches where proactive
	// intra-frequency A3 policies oscillate (§3.2's dominant conflict).
	AlternateAnchor bool
	// AnchorSwitchProb is the per-boundary band-switch probability
	// (default 0.5 when AlternateAnchor is set).
	AnchorSwitchProb float64
}

// NewLinearDeployment builds a rail-side deployment: one base station
// per site, every site carrying the anchor band and, with
// CoSitedProb, each secondary band. Cell IDs are assigned densely
// starting from 1.
func NewLinearDeployment(rng *sim.RNG, cfg DeploymentConfig) (*Deployment, error) {
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Bands) == 0 {
		return nil, fmt.Errorf("ran: no bands configured")
	}
	for i, b := range cfg.Bands {
		if b.FreqHz <= 0 || b.BandwidthMHz <= 0 {
			return nil, fmt.Errorf("ran: band %d invalid: %+v", i, b)
		}
	}
	d := &Deployment{cellByID: make(map[int]*Cell)}
	cellID := 1
	switchProb := cfg.AnchorSwitchProb
	if switchProb <= 0 {
		switchProb = 0.5
	}
	anchor := 0
	for bsID, pos := range cfg.Plan.Sites() {
		if cfg.PosJitterM > 0 {
			pos.X += rng.Uniform(-cfg.PosJitterM, cfg.PosJitterM)
		}
		sitePowerJitter := 0.0
		if cfg.PowerJitterDB > 0 {
			sitePowerJitter = rng.Uniform(-cfg.PowerJitterDB, cfg.PowerJitterDB)
		}
		bs := &BaseStation{ID: bsID + 1, Pos: pos}
		if cfg.AlternateAnchor && len(cfg.Bands) > 1 && bsID > 0 && rng.Bool(switchProb) {
			anchor = 1 - anchor
		}
		for bi, band := range cfg.Bands {
			if bi != anchor && !rng.Bool(cfg.CoSitedProb) {
				continue
			}
			c := &Cell{
				ID:           cellID,
				Channel:      band.Channel,
				FreqHz:       band.FreqHz,
				BandwidthMHz: band.BandwidthMHz,
				TxPowerDBm:   band.TxPowerDBm + sitePowerJitter,
				BS:           bs,
			}
			cellID++
			bs.Cells = append(bs.Cells, c)
			d.Cells = append(d.Cells, c)
			d.cellByID[c.ID] = c
		}
		d.BSs = append(d.BSs, bs)
	}
	d.buildIndex()
	return d, nil
}
