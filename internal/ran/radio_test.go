package ran

import (
	"math"
	"math/rand"
	"testing"

	"rem/internal/dsp"
	"rem/internal/geo"
	"rem/internal/sim"
)

// eagerCell is one cell of the eager reference snapshot.
type eagerCell struct {
	visible bool
	shadow  float64 // shadowing sum drawn this tick
	cr      CellRadio
}

// eagerSnapshot is the reference the lazy snapshot must reproduce: the
// snapshot as it ran before distance checkpoints, with the distance
// term computed for every site, the full hole list scanned per cell
// and every conversion done at once. It draws from e's streams in the
// same order and shares only fadeSample with the code under test.
func eagerSnapshot(e *RadioEnv, pos geo.Point, t float64, out []eagerCell) {
	clear(out)
	var (
		lastBS   *BaseStation
		distTerm float64
	)
	for i := range e.cells {
		st := &e.cells[i]
		c := st.cell
		if e.CellDown != nil && e.CellDown(c.ID, t) {
			continue
		}
		if c.BS != lastBS {
			lastBS = c.BS
			distTerm = e.Cfg.PathLoss.DistTermDB(pos.Distance(c.BS.Pos))
		}
		pl := distTerm + st.freqTerm
		sh := st.shadow.At(pos.X) + st.cellSh.At(pos.X)
		out[c.ID].shadow = sh
		meanRSRP := c.TxPowerDBm - pl - sh
		for _, h := range e.Cfg.Holes {
			if pos.X >= h.StartX && pos.X <= h.EndX && c.FreqHz >= h.MinFreqHz {
				meanRSRP -= h.ExtraLossDB
			}
		}
		if meanRSRP < -140 {
			continue
		}
		fade := e.fadeSample(st, t)
		meanSNR := meanRSRP - e.Cfg.NoisePerREDBm - e.Cfg.InterfMarginDB
		fadeDB := dsp.DB(fade)
		lin := dsp.FromDB(meanSNR + fadeDB)
		sinr := lin / (1 + st.ici*lin)
		out[c.ID] = eagerCell{visible: true, shadow: sh,
			cr: CellRadio{RSRP: meanRSRP + fadeDB, SNR: dsp.DB(sinr), DDSNR: meanSNR}}
	}
}

func sameRadio(a, b CellRadio) bool {
	return math.Float64bits(a.RSRP) == math.Float64bits(b.RSRP) &&
		math.Float64bits(a.SNR) == math.Float64bits(b.SNR) &&
		math.Float64bits(a.DDSNR) == math.Float64bits(b.DDSNR)
}

// TestLazySnapshotMatchesEager is the property test of the distance
// checkpoints: random walks (short steps that stay inside a
// checkpoint, jumps that leave it, lateral offsets), coverage holes
// that block every band or only the upper one, and a CellDown hook.
// On a random subset of ticks nothing is read at all; on the others
// every slot is read through a random mix of DD, Get, BestCell and
// FillAll, and Visible, DD and Get must equal the eager reference bit
// for bit. Both bound decisions (dropped below the floor, proved
// visible and left pending) and the exact fallback must occur.
func TestLazySnapshotMatchesEager(t *testing.T) {
	dep := testDeployment(t, 0.7)
	cfg := DefaultRadioConfig(92)
	cfg.Holes = []Hole{
		{StartX: 2500, EndX: 2900, ExtraLossDB: 30},
		{StartX: 2700, EndX: 3300, ExtraLossDB: 18, MinFreqHz: 2e9},
		{StartX: 9000, EndX: 9400, ExtraLossDB: 25, MinFreqHz: 2e9},
	}
	down := func(cell int, t float64) bool { return (cell*7+int(t*3))%11 == 0 }
	lazy := NewRadioEnv(dep, cfg, sim.NewStreams(5))
	ref := NewRadioEnv(dep, cfg, sim.NewStreams(5))
	lazy.CellDown, ref.CellDown = down, down
	want := make([]eagerCell, dep.MaxCellID()+1)
	rng := rand.New(rand.NewSource(6))
	var dropped, pending, exact int
	pos := geo.Point{X: 0, Y: 30}
	for tick := 0; tick < 3000; tick++ {
		tt := float64(tick) * 0.01
		switch r := rng.Intn(100); {
		case r < 3:
			pos.X += 200 + 600*rng.Float64() // leaves the checkpoint
		case r < 5:
			pos.Y = 300 * rng.Float64()
		default:
			pos.X += 2 * rng.Float64()
		}
		snap := lazy.Snapshot(pos, tt)
		eagerSnapshot(ref, pos, tt, want)
		if rng.Intn(4) == 0 {
			continue // an unread tick
		}
		for i := range lazy.cells {
			st := &lazy.cells[i]
			id := st.cell.ID
			if down(id, tt) {
				continue
			}
			site := &lazy.sites[st.cell.BS.idx]
			switch {
			case lazy.meanRSRP(st, site.termLo, want[id].shadow) < -140:
				dropped++
			case snap.Visible(id) && snap.pend[id]:
				pending++
			default:
				exact++
			}
		}
		switch rng.Intn(4) {
		case 0:
			snap.FillAll()
		case 1:
			BestCell(snap, false, -20)
		case 2:
			BestCell(snap, true, -130)
		}
		for id := 1; id < len(want); id++ {
			if snap.Visible(id) != want[id].visible {
				t.Fatalf("tick %d cell %d: visible %v, eager %v", tick, id, snap.Visible(id), want[id].visible)
			}
			if !want[id].visible {
				continue
			}
			if rng.Intn(2) == 0 {
				dd, _ := snap.DD(id)
				if math.Float64bits(dd) != math.Float64bits(want[id].cr.DDSNR) {
					t.Fatalf("tick %d cell %d: DD %v, eager %v", tick, id, dd, want[id].cr.DDSNR)
				}
			}
			if cr, _ := snap.Get(id); !sameRadio(cr, want[id].cr) {
				t.Fatalf("tick %d cell %d: Get %+v, eager %+v", tick, id, cr, want[id].cr)
			}
		}
	}
	t.Logf("cell decisions: %d dropped at the bound, %d pending, %d exact", dropped, pending, exact)
	if dropped == 0 || pending == 0 || exact == 0 {
		t.Fatalf("decisions not all exercised: %d dropped, %d pending, %d exact", dropped, pending, exact)
	}
}

// TestWarmChangesNoSnapshot steps two environments over the same
// streams, one warmed before every batch of ticks: every snapshot and
// the arena accounting must agree.
func TestWarmChangesNoSnapshot(t *testing.T) {
	dep := testDeployment(t, 1.0)
	arenaA, arenaB := sim.NewArena(), sim.NewArena()
	a := NewRadioEnv(dep, DefaultRadioConfig(92), arenaA.Streams(9))
	b := NewRadioEnv(dep, DefaultRadioConfig(92), arenaB.Streams(9))
	for tick := 0; tick < 400; tick++ {
		if tick%37 == 0 {
			a.Warm(37)
		}
		pos, tt := geo.Point{X: 0.92 * float64(tick), Y: 20}, 0.01*float64(tick)
		sa, sb := a.Snapshot(pos, tt), b.Snapshot(pos, tt)
		for id := 1; id <= sa.MaxID(); id++ {
			ca, oka := sa.Get(id)
			cb, okb := sb.Get(id)
			if oka != okb || !sameRadio(ca, cb) {
				t.Fatalf("tick %d cell %d: warmed %+v %v, unwarmed %+v %v", tick, id, ca, oka, cb, okb)
			}
		}
		if arenaA.Stats() != arenaB.Stats() {
			t.Fatalf("tick %d: arena stats %+v, unwarmed %+v", tick, arenaA.Stats(), arenaB.Stats())
		}
	}
}

// BenchmarkSnapshot times the per-tick radio snapshot as a REM fleet
// runs it: 256 UEs on arena streams, stepped 50 ticks (10 ms, 330
// km/h) per epoch one UE after another, each tick reading every
// visible cell's DD-SNR. "warmed" calls Warm before each UE's epoch,
// as the mobility runner does.
func BenchmarkSnapshot(b *testing.B) {
	const ues, ticks = 256, 50
	dep := testDeployment(b, 1.0)
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warmed"
		}
		b.Run(name, func(b *testing.B) {
			arena := sim.NewArena()
			envs := make([]*RadioEnv, ues)
			var sum float64
			step := func(u, tick int) {
				pos := geo.Point{X: 100*float64(u) + 0.92*float64(tick), Y: 20}
				snap := envs[u].Snapshot(pos, 0.01*float64(tick))
				for id := 1; id <= snap.MaxID(); id++ {
					if dd, ok := snap.DD(id); ok {
						sum += dd
					}
				}
			}
			for u := range envs {
				envs[u] = NewRadioEnv(dep, DefaultRadioConfig(92), arena.Streams(sim.ReplicaSeed(1, u)))
				step(u, 0) // seed the streams outside the timed epochs
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u, e := range envs {
					if warm {
						e.Warm(ticks)
					}
					for k := 1; k <= ticks; k++ {
						step(u, i*ticks+k)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ues*ticks), "ns/snapshot")
			if math.IsNaN(sum) {
				b.Fatal("NaN DD-SNR")
			}
		})
	}
}
