package chanmodel

import (
	"math"

	"rem/internal/sim"
)

// Shadowing models spatially correlated log-normal shadow fading as a
// first-order autoregressive (Gudmundson) process over traveled
// distance: correlation exp(−Δd/DecorrM) between samples Δd apart.
type Shadowing struct {
	StdDB   float64 // shadowing standard deviation (dB), typically 4–8
	DecorrM float64 // decorrelation distance (m), typically 50–100

	rng    *sim.RNG
	lastD  float64
	lastDB float64
	primed bool

	// rho/sig memo for the common fixed-step advance: tick-driven
	// callers query near-equidistant positions, so exp and sqrt of a
	// handful of deltas dominate the cost. Successive positions come
	// from x = v·t, so the step wobbles across a few ulp-distinct
	// values — a single-entry memo thrashes between them, hence the
	// small table. Keyed on the exact float delta, the cached values
	// are bitwise what the direct computation yields.
	memo  [8]shadowMemoEntry
	memoN int // entries filled; also the ring insert cursor
}

type shadowMemoEntry struct {
	delta, rho, sig float64
}

// NewShadowing creates a correlated shadowing process.
func NewShadowing(rng *sim.RNG, stdDB, decorrM float64) *Shadowing {
	return &Shadowing{StdDB: stdDB, DecorrM: decorrM, rng: rng}
}

// At returns the shadowing loss in dB at traveled distance d meters.
// Calls must use non-decreasing d; out-of-order queries re-prime the
// process (treated as a new, independent location).
func (s *Shadowing) At(d float64) float64 {
	if !s.primed || d < s.lastD {
		s.lastDB = s.rng.Gauss(0, s.StdDB)
		s.lastD = d
		s.primed = true
		return s.lastDB
	}
	delta := d - s.lastD
	if delta == 0 {
		return s.lastDB
	}
	var rho, sig float64
	if i := s.memoFind(delta); i >= 0 {
		rho, sig = s.memo[i].rho, s.memo[i].sig
	} else {
		rho = math.Exp(-delta / s.DecorrM)
		sig = math.Sqrt(1 - rho*rho)
		s.memoPut(delta, rho, sig)
	}
	s.lastDB = rho*s.lastDB + sig*s.rng.Gauss(0, s.StdDB)
	s.lastD = d
	return s.lastDB
}

// Warm pulls into cache the generator state that the next draws
// samples will read and returns the fold sim.RNG.Warm returns. It
// changes no sample.
func (s *Shadowing) Warm(draws int) uint64 { return s.rng.Warm(draws) }

func (s *Shadowing) memoFind(delta float64) int {
	n := s.memoN
	if n > len(s.memo) {
		n = len(s.memo)
	}
	for i := 0; i < n; i++ {
		if s.memo[i].delta == delta {
			return i
		}
	}
	return -1
}

func (s *Shadowing) memoPut(delta, rho, sig float64) {
	s.memo[s.memoN%len(s.memo)] = shadowMemoEntry{delta: delta, rho: rho, sig: sig}
	s.memoN++
}
