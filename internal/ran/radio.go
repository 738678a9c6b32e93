package ran

import (
	"math"

	"rem/internal/chanmodel"
	"rem/internal/dsp"
	"rem/internal/geo"
	"rem/internal/ofdm"
	"rem/internal/sim"
)

// CellRadio is the instantaneous radio state of one cell as seen by
// the client.
type CellRadio struct {
	RSRP float64 // dBm, including fast fading (what legacy reports)
	// SNR is the instantaneous OFDM signal-to-noise ratio in dB,
	// including fast fading and the Doppler ICI penalty — the volatile
	// quantity of Fig. 11's "Legacy" curve.
	SNR float64
	// DDSNR is the delay-Doppler domain SNR in dB: fast fading is
	// averaged out by the grid-wide OTFS spreading, no ICI penalty
	// applies — Fig. 11's stable "REM" curve.
	DDSNR float64
}

// Hole is a coverage hole along the track (tunnel, deep cutting, or a
// frequency-selective blockage): cells with carrier ≥ MinFreqHz take
// ExtraLossDB additional loss while the client is inside
// [StartX, EndX]. MinFreqHz = 0 blocks every band (terrain);
// MinFreqHz ≈ 10 GHz models mmWave blockage that sub-6 GHz penetrates.
type Hole struct {
	StartX, EndX float64
	ExtraLossDB  float64
	MinFreqHz    float64
}

// RadioConfig parameterizes the radio environment.
type RadioConfig struct {
	PathLoss       geo.PathLoss
	NoisePerREDBm  float64 // thermal noise + noise figure per RE (default −125)
	InterfMarginDB float64 // average other-cell interference margin (default 12)
	ShadowStdDB    float64 // per-site log-normal shadowing σ (default 4)
	ShadowDecorrM  float64 // shadowing decorrelation distance (default 120)
	// CellShadowStdDB is the small per-cell residual on top of the
	// per-site shadowing: co-sited cells share their propagation paths
	// (paper §3.1), so almost all shadowing is common to the site.
	CellShadowStdDB float64
	SpeedMS         float64 // client speed (drives fading rate and ICI)
	SymbolT         float64 // OFDM symbol duration for the ICI penalty
	Holes           []Hole  // coverage holes along the track
	// ShadowDrawBudget is the expected raw-draw upper bound per
	// shadowing stream (roughly one Gauss per tick of the run), passed
	// to the stream factory as a residency hint: arena-backed factories
	// materialize budgeted streams as short tapes instead of full
	// 607-word generator windows. 0 means unbounded. The hint never
	// affects draw values (see sim.ArenaStreams.StreamBudget).
	ShadowDrawBudget int
}

// DefaultRadioConfig returns the HSR-calibrated defaults.
func DefaultRadioConfig(speedMS float64) RadioConfig {
	return RadioConfig{
		PathLoss:        geo.DefaultPathLoss(),
		NoisePerREDBm:   -125,
		InterfMarginDB:  18,
		ShadowStdDB:     3.5,
		ShadowDecorrM:   250,
		CellShadowStdDB: 0.75,
		SpeedMS:         speedMS,
		SymbolT:         ofdm.LTE().SymbolT,
	}
}

// cellFadeState is the per-cell AR(1) complex fading process.
type cellFadeState struct {
	g      complex128
	lastT  float64
	primed bool
	// rho memo keyed on the exact elapsed dt. Tick-driven callers
	// advance in near-fixed steps — t = n·dt wobbles across a few
	// ulp-distinct differences, and outage/visibility gaps add a few
	// multi-tick strides — so a small table keyed on the exact float
	// dt catches almost every advance while returning bitwise the
	// value a direct exp() would.
	memo  [8]fadeMemoEntry
	memoN int // entries filled; also the ring insert cursor
}

type fadeMemoEntry struct {
	dt, rho float64
}

func (f *cellFadeState) memoFind(dt float64) (float64, bool) {
	n := f.memoN
	if n > len(f.memo) {
		n = len(f.memo)
	}
	for i := 0; i < n; i++ {
		if f.memo[i].dt == dt {
			return f.memo[i].rho, true
		}
	}
	return 0, false
}

func (f *cellFadeState) memoPut(dt, rho float64) {
	f.memo[f.memoN%len(f.memo)] = fadeMemoEntry{dt: dt, rho: rho}
	f.memoN++
}

// cellRadioState carries everything Snapshot needs for one cell: the
// shadowing processes and fading state plus the per-cell constants
// (frequency path-loss term, coherence time, ICI ratio) that the naive
// per-tick recomputation spent most of its time on.
type cellRadioState struct {
	cell     *Cell
	shadow   *chanmodel.Shadowing // per-site, shared across co-sited cells
	cellSh   *chanmodel.Shadowing // per-cell residual
	fade     cellFadeState
	freqTerm float64 // PathLoss.FreqTermDB(FreqHz)
	tc       float64 // chanmodel.CoherenceTime(FreqHz, speed)
	ici      float64 // ofdm.ICIPowerRatio at this carrier
}

// Distance checkpoints. The distance term is the one Log10 of a
// snapshot, yet a cell's visibility needs only to know on which side
// of the −140 dBm floor its mean RSRP lies. Each site keeps an interval
// [c−checkpointM, c+checkpointM] around a distance c it has seen, with
// DistTermDB evaluated at both ends and widened by checkpointSlackDB
// (far more than Log10's rounding error, so the bounds hold even if
// that is not monotone to the last ulp). While the client stays inside
// the interval the true term lies between the bounds, and since every
// float operation from the term to the mean RSRP is monotone under
// rounding, a decision taken at a bound is the decision the exact term
// gives.
const (
	checkpointM       = 250
	checkpointSlackDB = 1e-9
)

// siteDist is one site's distance checkpoint and this tick's distance.
type siteDist struct {
	c              float64 // checkpoint centre (m); NaN until first use
	termLo, termHi float64 // bounds on DistTermDB over the interval
	d              float64 // the client's distance at the current snapshot
	term           float64 // DistTermDB(d) once computed, else NaN
}

// at sets the site's distance for a snapshot, moving the checkpoint
// when d leaves its interval.
func (sd *siteDist) at(pl geo.PathLoss, d float64) {
	sd.d, sd.term = d, math.NaN()
	if d >= sd.c-checkpointM && d <= sd.c+checkpointM {
		return
	}
	sd.c = d
	a, b := pl.DistTermDB(math.Max(d-checkpointM, 0)), pl.DistTermDB(d+checkpointM)
	sd.termLo = math.Min(a, b) - checkpointSlackDB
	sd.termHi = math.Max(a, b) + checkpointSlackDB
}

// distTerm returns the exact DistTermDB at the site's current distance,
// computed at most once per snapshot.
func (sd *siteDist) distTerm(pl geo.PathLoss) float64 {
	if math.IsNaN(sd.term) {
		sd.term = pl.DistTermDB(sd.d)
	}
	return sd.term
}

// RadioSnap is the flat per-tick radio view: one slot per cell,
// indexed by the deployment's dense cell IDs (slot 0 unused). A slot
// is meaningful only while Visible reports true — invisible slots
// keep stale bytes rather than paying a full clear per tick. The
// struct is owned by whoever built it (RadioEnv reuses one across
// Snapshot calls) and must be consumed before the next refill.
type RadioSnap struct {
	radio []CellRadio
	vis   []bool
	// Lazy fade-conversion state. A slot filled by the environment
	// starts with only DDSNR final; the fade-dependent RSRP/SNR fields
	// are derived on first Get from the stored linear fade sample —
	// bitwise the same arithmetic the eager path ran, just deferred
	// past the cells a tick never reads in full (REM policies evaluate
	// on DD-SNR, so most ticks read one full slot: the serving cell).
	full  []bool
	mean  []float64 // pre-fade mean RSRP (dBm)
	fadeP []float64 // linear fading power gain
	iciF  []float64 // Doppler ICI power ratio
	// Pending distance term: a slot the environment marked pend holds
	// only its shadowing sum in mean; the first read resolves the exact
	// mean RSRP and DDSNR through env. Slots are marked pend only when
	// the distance bounds already proved the cell visible.
	pend []bool
	env  *RadioEnv
	n    int
}

// NewRadioSnap returns an empty snapshot sized for cell IDs 1..maxID.
func NewRadioSnap(maxID int) *RadioSnap {
	if maxID < 0 {
		maxID = 0
	}
	return &RadioSnap{
		radio: make([]CellRadio, maxID+1),
		vis:   make([]bool, maxID+1),
		full:  make([]bool, maxID+1),
		mean:  make([]float64, maxID+1),
		fadeP: make([]float64, maxID+1),
		iciF:  make([]float64, maxID+1),
		pend:  make([]bool, maxID+1),
	}
}

// Reset marks every cell invisible (one memclr; no per-slot work).
// Stale full/mean/fade bytes are harmless: every put path overwrites
// them before the slot turns visible again.
func (s *RadioSnap) Reset() {
	clear(s.vis)
	s.n = 0
}

// Put stores cell id's complete radio state, growing the index if
// needed.
func (s *RadioSnap) Put(id int, cr CellRadio) {
	if id < 0 {
		return
	}
	for id >= len(s.vis) {
		s.radio = append(s.radio, CellRadio{})
		s.vis = append(s.vis, false)
		s.full = append(s.full, false)
		s.mean = append(s.mean, 0)
		s.fadeP = append(s.fadeP, 0)
		s.iciF = append(s.iciF, 0)
		s.pend = append(s.pend, false)
	}
	if !s.vis[id] {
		s.n++
	}
	s.radio[id], s.vis[id], s.full[id], s.pend[id] = cr, true, true, false
}

// putLazy stores cell id's pre-conversion radio state: DDSNR is final,
// the fade-dependent fields are derived on first Get. Only the
// environment calls this, on a snapshot it sized itself.
func (s *RadioSnap) putLazy(id int, meanRSRP, meanSNR, fadeP, ici float64) {
	if !s.vis[id] {
		s.n++
	}
	s.vis[id], s.full[id], s.pend[id] = true, false, false
	s.radio[id] = CellRadio{DDSNR: meanSNR}
	s.mean[id], s.fadeP[id], s.iciF[id] = meanRSRP, fadeP, ici
}

// putPending stores a cell proved visible whose distance term is not
// yet computed: mean holds the shadowing sum until resolve.
func (s *RadioSnap) putPending(id int, shadow, fadeP, ici float64) {
	if !s.vis[id] {
		s.n++
	}
	s.vis[id], s.full[id], s.pend[id] = true, false, true
	s.mean[id], s.fadeP[id], s.iciF[id] = shadow, fadeP, ici
}

// resolve computes a pending slot's mean RSRP and DDSNR from the exact
// distance term — the operations the eager snapshot runs, in order.
func (s *RadioSnap) resolve(id int) {
	e := s.env
	st := &e.cells[e.Dep.cellIdx[id]]
	m := e.meanRSRP(st, e.sites[st.cell.BS.idx].distTerm(e.Cfg.PathLoss), s.mean[id])
	s.radio[id] = CellRadio{DDSNR: e.meanSNR(m)}
	s.mean[id], s.pend[id] = m, false
}

// fill derives a visible slot's fade-dependent fields — the same
// operations, in the same order, the eager snapshot used to run.
func (s *RadioSnap) fill(id int) {
	if s.pend[id] {
		s.resolve(id)
	}
	fadeDB := dsp.DB(s.fadeP[id])

	// ICI behaves as self-noise: SINR = S/(N + ici·S).
	lin := dsp.FromDB(s.radio[id].DDSNR + fadeDB)
	sinr := lin / (1 + s.iciF[id]*lin)

	s.radio[id].RSRP = s.mean[id] + fadeDB
	s.radio[id].SNR = dsp.DB(sinr)
	s.full[id] = true
}

// FillAll materializes every visible slot eagerly — the always-step
// verification path (mobility's Config.FullSnapshotInOutage). Results
// are bitwise identical to lazy fills.
func (s *RadioSnap) FillAll() {
	for id := 1; id < len(s.vis); id++ {
		if s.vis[id] && !s.full[id] {
			s.fill(id)
		}
	}
}

// Get returns cell id's radio state and whether it is visible.
func (s *RadioSnap) Get(id int) (CellRadio, bool) {
	if id < 0 || id >= len(s.vis) || !s.vis[id] {
		return CellRadio{}, false
	}
	if !s.full[id] {
		s.fill(id)
	}
	return s.radio[id], true
}

// DD returns cell id's delay-Doppler SNR and whether it is visible,
// without forcing the fade-dependent conversions — the REM hot path
// reads only this.
func (s *RadioSnap) DD(id int) (float64, bool) {
	if id < 0 || id >= len(s.vis) || !s.vis[id] {
		return 0, false
	}
	if s.pend[id] {
		s.resolve(id)
	}
	return s.radio[id].DDSNR, true
}

// Visible reports whether cell id is in the snapshot.
func (s *RadioSnap) Visible(id int) bool {
	return id >= 0 && id < len(s.vis) && s.vis[id]
}

// MaxID returns the highest indexable cell ID (iterate 1..MaxID).
func (s *RadioSnap) MaxID() int { return len(s.vis) - 1 }

// Len returns the number of visible cells.
func (s *RadioSnap) Len() int { return s.n }

// RadioEnv computes per-cell radio snapshots for a client moving along
// the deployment. It is deterministic for a given RNG stream.
type RadioEnv struct {
	Dep *Deployment
	Cfg RadioConfig

	// CellDown, when non-nil, is the fault plane's scheduled-outage
	// hook: a cell reported down at time t is omitted from snapshots
	// entirely (clients can neither measure nor connect to it), and its
	// fading process freezes until it restarts. The hook must be
	// deterministic in (cell, t) and draw no randomness — it is
	// consulted before any RNG advance so that a nil hook and a
	// hook returning false produce identical draw sequences.
	CellDown func(cell int, t float64) bool

	cells  []cellRadioState // in Dep.Cells order
	sites  []siteDist       // in Dep.BSs order
	active []Hole           // the holes covering the current snapshot's position
	snap   *RadioSnap       // reused across Snapshot calls
	rng    *sim.RNG
	warmed uint64 // sink for Warm's reads, so they are not dropped
}

// NewRadioEnv wires a radio environment over a deployment. It accepts
// any stream factory: the single-run path passes eager *sim.Streams,
// the fleet path passes arena-backed *sim.ArenaStreams — the seed
// schedule (and so every draw) is identical on either.
func NewRadioEnv(dep *Deployment, cfg RadioConfig, streams sim.StreamSource) *RadioEnv {
	e := &RadioEnv{
		Dep: dep,
		Cfg: cfg,
		// Fading draws two Gauss per visible cell per tick — far past
		// any tape, so it stays an unbounded (full-window) stream.
		rng: streams.Stream("ran.fading"),
	}
	// Stream creation order (per BS, then per cell) is part of the seed
	// schedule and must not change.
	siteShadow := make(map[int]*chanmodel.Shadowing, len(dep.BSs))
	for _, bs := range dep.BSs {
		siteShadow[bs.ID] = chanmodel.NewShadowing(
			streams.StreamBudget("ran.shadow.bs."+itoa(bs.ID), cfg.ShadowDrawBudget),
			cfg.ShadowStdDB, cfg.ShadowDecorrM)
	}
	// Every checkpoint starts empty: no distance lies within NaN ± m.
	e.sites = make([]siteDist, len(dep.BSs))
	for i := range e.sites {
		e.sites[i].c = math.NaN()
	}
	e.cells = make([]cellRadioState, len(dep.Cells))
	for i, c := range dep.Cells {
		e.cells[i] = cellRadioState{
			cell:   c,
			shadow: siteShadow[c.BS.ID],
			cellSh: chanmodel.NewShadowing(
				streams.StreamBudget("ran.shadow.cell."+itoa(c.ID), cfg.ShadowDrawBudget),
				cfg.CellShadowStdDB, cfg.ShadowDecorrM),
			tc:  chanmodel.CoherenceTime(c.FreqHz, cfg.SpeedMS),
			ici: ofdm.ICIPowerRatio(chanmodel.MaxDoppler(c.FreqHz, cfg.SpeedMS), cfg.SymbolT),
		}
		if c.FreqHz > 0 {
			e.cells[i].freqTerm = cfg.PathLoss.FreqTermDB(c.FreqHz)
		}
	}
	return e
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// fadeSample advances a cell's AR(1) Rayleigh fading process to time t
// and returns the power gain (linear, mean 1).
func (e *RadioEnv) fadeSample(st *cellRadioState, t float64) float64 {
	f := &st.fade
	if !f.primed {
		f.g = e.rng.ComplexNorm(1)
		f.lastT = t
		f.primed = true
	} else if t > f.lastT {
		var rho float64
		if math.IsInf(st.tc, 1) {
			rho = 1
		} else {
			dt := t - f.lastT
			var hit bool
			if rho, hit = f.memoFind(dt); !hit {
				rho = math.Exp(-dt / st.tc)
				f.memoPut(dt, rho)
			}
		}
		f.g = complex(rho, 0)*f.g + e.rng.ComplexNorm(1-rho*rho)
		f.lastT = t
	}
	p := real(f.g)*real(f.g) + imag(f.g)*imag(f.g)
	if p < 1e-6 {
		p = 1e-6
	}
	return p
}

// Snapshot returns the radio state of every cell at client position pos
// and time t. Cells below the visibility floor (−140 dBm RSRP) are
// omitted. Visibility and every draw are final on return; a slot's
// distance term may be deferred to its first read, and the
// fade-dependent RSRP/SNR conversions to its first Get, so ticks that
// read only DD-SNR (REM policies, detached clients) never pay them.
// The returned snapshot is owned by the environment and reused by the
// next Snapshot/SnapshotDD call: consume it before advancing.
func (e *RadioEnv) Snapshot(pos geo.Point, t float64) *RadioSnap {
	return e.snapshot(pos, t)
}

// SnapshotDD is the historical name of the outage fast path. Since the
// dB conversions became lazy snapshot-wide, it is identical to
// Snapshot — every radio process advances through the same draw
// sequence, and a full CellRadio (any cell's, not just fullID's) is a
// Get away. Kept so detached-path call sites read as what they are.
func (e *RadioEnv) SnapshotDD(pos geo.Point, t float64, fullID int) *RadioSnap {
	return e.snapshot(pos, t)
}

func (e *RadioEnv) snapshot(pos geo.Point, t float64) *RadioSnap {
	if e.snap == nil {
		maxID := 0
		for i := range e.cells {
			if id := e.cells[i].cell.ID; id > maxID {
				maxID = id
			}
		}
		e.snap = NewRadioSnap(maxID)
		e.snap.env = e
	}
	out := e.snap
	out.Reset()
	e.active = e.active[:0]
	for _, h := range e.Cfg.Holes {
		if pos.X >= h.StartX && pos.X <= h.EndX {
			e.active = append(e.active, h)
		}
	}
	// Co-sited cells are contiguous in e.cells (deployment appends
	// per site, then per band) and share the base-station position,
	// so the distance is computed once per site. The distance term is
	// bounded from the site's checkpoint: a cell the bounds prove
	// invisible is dropped, one they prove visible is stored pending
	// and gets its exact term on first read, and only a cell near the
	// floor needs the exact term now.
	var (
		lastBS *BaseStation
		site   *siteDist
	)
	for i := range e.cells {
		st := &e.cells[i]
		c := st.cell
		if e.CellDown != nil && e.CellDown(c.ID, t) {
			continue
		}
		if c.BS != lastBS {
			lastBS = c.BS
			site = &e.sites[c.BS.idx]
			site.at(e.Cfg.PathLoss, pos.Distance(c.BS.Pos))
		}
		sh := st.shadow.At(pos.X) + st.cellSh.At(pos.X)
		if e.meanRSRP(st, site.termLo, sh) < -140 {
			continue
		}
		if e.meanRSRP(st, site.termHi, sh) >= -140 {
			out.putPending(c.ID, sh, e.fadeSample(st, t), st.ici)
			continue
		}
		meanRSRP := e.meanRSRP(st, site.distTerm(e.Cfg.PathLoss), sh)
		if meanRSRP < -140 {
			continue
		}
		out.putLazy(c.ID, meanRSRP, e.meanSNR(meanRSRP), e.fadeSample(st, t), st.ici)
	}
	return out
}

// meanRSRP is a cell's pre-fade RSRP (dBm) for a distance term and
// shadowing sum at the current snapshot's position. It is monotone
// non-increasing in distTerm.
func (e *RadioEnv) meanRSRP(st *cellRadioState, distTerm, sh float64) float64 {
	pl := distTerm + st.freqTerm
	m := st.cell.TxPowerDBm - pl - sh
	for _, h := range e.active {
		if st.cell.FreqHz >= h.MinFreqHz {
			m -= h.ExtraLossDB
		}
	}
	return m
}

func (e *RadioEnv) meanSNR(meanRSRP float64) float64 {
	return meanRSRP - e.Cfg.NoisePerREDBm - e.Cfg.InterfMarginDB
}

// Warm pulls into cache the generator state that the next ticks
// snapshots will draw from: every site and cell shadowing stream, and
// the fading stream for as many cells as the last snapshot showed (see
// sim.RNG.Warm). Called once before stepping a batch of ticks, it lets
// the cache misses of a UE's many cold streams overlap. It reads only:
// no draw, result or arena statistic changes.
func (e *RadioEnv) Warm(ticks int) {
	if ticks <= 0 {
		return
	}
	n := ticks + 8 // a shadowing sample draws one word, rarely more
	var (
		last *chanmodel.Shadowing
		acc  uint64
	)
	for i := range e.cells {
		st := &e.cells[i]
		if st.shadow != last {
			last = st.shadow
			acc ^= last.Warm(n)
		}
		acc ^= st.cellSh.Warm(n)
	}
	if e.snap != nil {
		// Two normals per visible cell per tick.
		acc ^= e.rng.Warm(2*ticks*e.snap.Len() + 8)
	}
	e.warmed = acc
}

// BestCell returns the cell with the strongest metric in a snapshot
// (RSRP when byRSRP, otherwise DDSNR) and whether any cell qualifies
// above the floor. The ascending-ID scan with a strict comparison
// keeps the lower ID on ties.
func BestCell(snap *RadioSnap, byRSRP bool, floor float64) (int, float64, bool) {
	bestID, bestV, found := 0, 0.0, false
	for id := 1; id < len(snap.vis); id++ {
		if !snap.vis[id] {
			continue
		}
		var v float64
		if byRSRP {
			if !snap.full[id] {
				snap.fill(id)
			}
			v = snap.radio[id].RSRP
		} else {
			if snap.pend[id] {
				snap.resolve(id)
			}
			v = snap.radio[id].DDSNR
		}
		if v < floor {
			continue
		}
		if !found || v > bestV {
			bestID, bestV, found = id, v, true
		}
	}
	return bestID, bestV, found
}
