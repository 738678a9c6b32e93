package ran

import (
	"math"
	"testing"

	"rem/internal/dsp"
	"rem/internal/geo"
	"rem/internal/policy"
	"rem/internal/sim"
)

func testDeployment(t testing.TB, coSited float64) *Deployment {
	t.Helper()
	streams := sim.NewStreams(100)
	dep, err := NewLinearDeployment(streams.Stream("dep"), DeploymentConfig{
		Plan: geo.SitePlan{TrackLenM: 20000, SpacingM: 1600, OffsetM: 120, Alternating: true},
		Bands: []BandConfig{
			{Channel: 1825, FreqHz: 1.835e9, BandwidthMHz: 20, TxPowerDBm: 18},
			{Channel: 2452, FreqHz: 2.665e9, BandwidthMHz: 10, TxPowerDBm: 18},
		},
		CoSitedProb: coSited,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestDeploymentStructure(t *testing.T) {
	dep := testDeployment(t, 1.0)
	if len(dep.BSs) != 12 { // 20000/1600 sites starting at 800
		t.Fatalf("%d base stations, want 12", len(dep.BSs))
	}
	if len(dep.Cells) != 24 {
		t.Fatalf("%d cells, want 24 (all co-sited)", len(dep.Cells))
	}
	chs := dep.Channels()
	if len(chs) != 2 || chs[0] != 1825 || chs[1] != 2452 {
		t.Fatalf("channels = %v", chs)
	}
	if !dep.CoSited(1825, 2452) {
		t.Fatal("bands should be co-sited")
	}
	if dep.CoSitedCellFraction() != 1.0 {
		t.Fatalf("co-sited fraction = %g", dep.CoSitedCellFraction())
	}
	if dep.CellByID(1) == nil || dep.CellByID(999) != nil {
		t.Fatal("CellByID misbehaves")
	}
	for _, c := range dep.Cells {
		if c.BS == nil {
			t.Fatal("cell missing base station")
		}
	}
}

func TestDeploymentCoSitedProbability(t *testing.T) {
	dep := testDeployment(t, 0.0)
	if len(dep.Cells) != len(dep.BSs) {
		t.Fatal("with probability 0 only anchor cells should exist")
	}
	if dep.CoSited(1825, 2452) {
		t.Fatal("no site hosts both bands")
	}
	if dep.CoSitedCellFraction() != 0 {
		t.Fatal("co-sited fraction should be 0")
	}
}

func TestDeploymentValidation(t *testing.T) {
	streams := sim.NewStreams(101)
	rng := streams.Stream("x")
	if _, err := NewLinearDeployment(rng, DeploymentConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewLinearDeployment(rng, DeploymentConfig{
		Plan: geo.SitePlan{TrackLenM: 100, SpacingM: 50},
	}); err == nil {
		t.Fatal("no bands accepted")
	}
	if _, err := NewLinearDeployment(rng, DeploymentConfig{
		Plan:  geo.SitePlan{TrackLenM: 100, SpacingM: 50},
		Bands: []BandConfig{{Channel: 1, FreqHz: -1, BandwidthMHz: 10}},
	}); err == nil {
		t.Fatal("invalid band accepted")
	}
}

func TestRadioEnvSnapshotBasics(t *testing.T) {
	dep := testDeployment(t, 1.0)
	streams := sim.NewStreams(102)
	env := NewRadioEnv(dep, DefaultRadioConfig(83), streams)
	// Stand right under the first base station.
	snap := env.Snapshot(geo.Point{X: 800, Y: 0}, 0)
	if snap.Len() == 0 {
		t.Fatal("no visible cells")
	}
	// The nearest site's cells should be strongest.
	best, v, ok := BestCell(snap, true, -140)
	if !ok {
		t.Fatal("no best cell")
	}
	bc := dep.CellByID(best)
	if math.Abs(bc.BS.Pos.X-800) > 1 {
		t.Fatalf("best cell at site x=%g, want 800 (RSRP %g)", bc.BS.Pos.X, v)
	}
	// RSRP should be within plausible dataset range near a site.
	if v < -100 || v > -40 {
		t.Fatalf("near-site RSRP = %g dBm implausible", v)
	}
	// SNR should degrade as we move to the midpoint between sites.
	mid := env.Snapshot(geo.Point{X: 1600, Y: 0}, 1)
	_, vMid, _ := BestCell(mid, true, -140)
	if vMid >= v {
		t.Fatalf("midpoint RSRP %g should be below near-site %g", vMid, v)
	}
}

func TestRadioEnvDDSNRStability(t *testing.T) {
	// Fig. 11's mechanism: instantaneous OFDM SNR fluctuates with fast
	// fading, the delay-Doppler SNR does not.
	dep := testDeployment(t, 1.0)
	streams := sim.NewStreams(103)
	env := NewRadioEnv(dep, DefaultRadioConfig(97), streams) // 350 km/h
	pos := geo.Point{X: 900, Y: 0}
	var snrs, dds []float64
	cellID := 0
	for i := 0; i < 200; i++ {
		t0 := float64(i) * 0.005
		snap := env.Snapshot(pos, t0)
		if cellID == 0 {
			cellID, _, _ = BestCell(snap, true, -140)
		}
		cr, ok := snap.Get(cellID)
		if !ok {
			t.Fatal("cell disappeared")
		}
		snrs = append(snrs, cr.SNR)
		dds = append(dds, cr.DDSNR)
	}
	if sd := dsp.StdDev(snrs); sd < 1 {
		t.Fatalf("legacy SNR stddev %g too small — fading not applied", sd)
	}
	if sd := dsp.StdDev(dds); sd > 0.5 {
		t.Fatalf("DD SNR stddev %g too large — should be stable", sd)
	}
}

func TestRadioEnvICIPenaltyGrowsWithSpeed(t *testing.T) {
	dep := testDeployment(t, 1.0)
	sSlow := sim.NewStreams(104)
	sFast := sim.NewStreams(104)
	slow := NewRadioEnv(dep, DefaultRadioConfig(8), sSlow)  // 30 km/h
	fast := NewRadioEnv(dep, DefaultRadioConfig(97), sFast) // 350 km/h
	pos := geo.Point{X: 800, Y: 0}
	a := slow.Snapshot(pos, 0)
	b := fast.Snapshot(pos, 0)
	id, _, _ := BestCell(a, true, -140)
	// DD SNR is fade-free so the comparison is deterministic: the ICI
	// penalty only affects the OFDM SNR. Compare the SNR-to-DDSNR gap.
	crA, _ := a.Get(id)
	crB, _ := b.Get(id)
	gapSlow := crA.DDSNR - crA.SNR
	gapFast := crB.DDSNR - crB.SNR
	// Fading differs between draws; average over many ticks.
	var sumSlow, sumFast float64
	const n = 300
	for i := 1; i <= n; i++ {
		t0 := float64(i) * 0.01
		sa, _ := slow.Snapshot(pos, t0).Get(id)
		sb, _ := fast.Snapshot(pos, t0).Get(id)
		sumSlow += sa.DDSNR - sa.SNR
		sumFast += sb.DDSNR - sb.SNR
	}
	_ = gapSlow
	_ = gapFast
	if sumFast/n <= sumSlow/n {
		t.Fatalf("mean SNR penalty at 350km/h (%g) should exceed 30km/h (%g)", sumFast/n, sumSlow/n)
	}
}

func TestBestCellDeterministicAndFloor(t *testing.T) {
	snap := NewRadioSnap(3)
	snap.Put(1, CellRadio{RSRP: -100, DDSNR: 5})
	snap.Put(2, CellRadio{RSRP: -90, DDSNR: 15})
	snap.Put(3, CellRadio{RSRP: -90, DDSNR: 15})
	id, v, ok := BestCell(snap, true, -140)
	if !ok || id != 2 || v != -90 {
		t.Fatalf("BestCell = (%d, %g, %v), want (2, -90, true) with ID tie-break", id, v, ok)
	}
	if _, _, ok := BestCell(snap, true, -80); ok {
		t.Fatal("floor should exclude everything")
	}
	id, _, _ = BestCell(snap, false, -140)
	if id != 2 {
		t.Fatalf("DDSNR best = %d", id)
	}
}

func TestLinkModelLegacyVsOTFS(t *testing.T) {
	streams := sim.NewStreams(105)
	lm := NewLinkModel(streams.Stream("link"), DefaultLinkConfig())
	// At a mean SNR near the waterfall, the legacy link (random fade
	// per attempt) fails much more often than OTFS at the stable mean.
	const trials = 2000
	legacyFail, otfsFail := 0, 0
	for i := 0; i < trials; i++ {
		inst := -1 + dsp.DB(rayleighPower(lm.rng)) // faded instantaneous
		if d := lm.DeliverLegacy(inst, -1, false); !d.OK {
			legacyFail++
		}
		if d := lm.DeliverOTFS(-1, false); !d.OK {
			otfsFail++
		}
	}
	if otfsFail >= legacyFail {
		t.Fatalf("OTFS failures %d should be below legacy %d", otfsFail, legacyFail)
	}
	// Delivery delay grows with attempts.
	d := lm.DeliverOTFS(30, false)
	if !d.OK || d.Attempts != 1 || math.Abs(d.Delay-0.008) > 1e-12 {
		t.Fatalf("high-SNR delivery = %+v", d)
	}
}

func TestLinkModelUplinkPenalty(t *testing.T) {
	streams := sim.NewStreams(106)
	lm := NewLinkModel(streams.Stream("link"), DefaultLinkConfig())
	const trials = 3000
	ulFail, dlFail := 0, 0
	// −6 dB sits where HARQ cannot always rescue the block, so the
	// 3 dB uplink penalty shows up as extra failures.
	for i := 0; i < trials; i++ {
		if d := lm.DeliverOTFS(-6, true); !d.OK {
			ulFail++
		}
		if d := lm.DeliverOTFS(-6, false); !d.OK {
			dlFail++
		}
	}
	if ulFail <= dlFail {
		t.Fatalf("uplink failures %d should exceed downlink %d", ulFail, dlFail)
	}
}

func TestLinkModelConfigDefaults(t *testing.T) {
	streams := sim.NewStreams(107)
	lm := NewLinkModel(streams.Stream("x"), LinkConfig{})
	if lm.Cfg.HARQMax != 1 || lm.Cfg.PerTxDelay != 0.008 || lm.Cfg.CodeRate <= 0 {
		t.Fatalf("defaults not applied: %+v", lm.Cfg)
	}
}

// measPolicies builds a simple legacy policy: intra A3 plus a staged
// inter-frequency A4 behind an A2 gate.
func measPolicy(cellID, servingCh, interCh int) *policy.Policy {
	return &policy.Policy{
		CellID:  cellID,
		Channel: servingCh,
		Rules: []policy.Rule{
			{Type: policy.A2, ServThresh: -105, TTTSec: 0.08},
			{Type: policy.A3, OffsetDB: 3, TTTSec: 0.08, TargetChannel: servingCh},
			{Type: policy.A4, NeighThresh: -108, TTTSec: 0.16, TargetChannel: interCh, Stage: 1},
		},
	}
}

// snapshotWhere builds a synthetic radio snapshot.
func snapshotWhere(vals map[int]float64) *RadioSnap {
	maxID := 0
	for id := range vals {
		if id > maxID {
			maxID = id
		}
	}
	out := NewRadioSnap(maxID)
	for id, v := range vals {
		out.Put(id, CellRadio{RSRP: v, SNR: v + 20, DDSNR: v + 22})
	}
	return out
}

func TestMeasEngineIntraA3TTT(t *testing.T) {
	dep := testDeployment(t, 1.0)
	streams := sim.NewStreams(108)
	// Cells 1 (ch 1825) and 3 (ch 1825 at next site) per construction.
	var intraNeighbor int
	serving := dep.Cells[0]
	for _, c := range dep.Cells[1:] {
		if c.Channel == serving.Channel {
			intraNeighbor = c.ID
			break
		}
	}
	pol := measPolicy(serving.ID, serving.Channel, 2452)
	e := NewMeasEngine(streams.Stream("meas"), dep, pol, serving.ID, DefaultLegacyMeasConfig())
	snap := snapshotWhere(map[int]float64{serving.ID: -100, intraNeighbor: -95})
	var reports []Report
	for i := 0; i <= 40; i++ { // past the post-handover settle time
		tt := float64(i) * 0.02
		reports = append(reports, e.Tick(tt, snap)...)
	}
	if len(reports) == 0 {
		t.Fatal("no A3 report produced")
	}
	r := reports[0]
	if r.CellID != intraNeighbor || r.Rule.Type != policy.A3 {
		t.Fatalf("report = %+v", r)
	}
	if r.ReadyAt-r.CriterionAt < 0.08-1e-9 {
		t.Fatalf("TTT not respected: %g", r.ReadyAt-r.CriterionAt)
	}
}

func TestMeasEngineMultiStageGatesInterFrequency(t *testing.T) {
	dep := testDeployment(t, 1.0)
	streams := sim.NewStreams(109)
	serving := dep.Cells[0]
	var interNeighbor *Cell
	for _, c := range dep.Cells {
		if c.Channel != serving.Channel {
			interNeighbor = c
			break
		}
	}
	pol := measPolicy(serving.ID, serving.Channel, interNeighbor.Channel)
	e := NewMeasEngine(streams.Stream("meas"), dep, pol, serving.ID, DefaultLegacyMeasConfig())

	// Serving healthy: inter-frequency cell visible but never
	// reported (gaps not armed).
	snap := snapshotWhere(map[int]float64{serving.ID: -90, interNeighbor.ID: -80})
	for i := 0; i <= 30; i++ {
		if rep := e.Tick(float64(i)*0.02, snap); len(rep) != 0 {
			t.Fatalf("stage-1 rule fired without A2: %+v", rep)
		}
	}
	if e.GapsActive(0.6) {
		t.Fatal("gaps should not be active")
	}

	// Serving degrades: A2 arms gaps after TTT + reconfig RTT, then
	// the A4 fires after its own TTT.
	snap = snapshotWhere(map[int]float64{serving.ID: -110, interNeighbor.ID: -80})
	var got []Report
	base := 1.0
	for i := 0; i <= 60 && len(got) == 0; i++ {
		got = append(got, e.Tick(base+float64(i)*0.02, snap)...)
	}
	if len(got) == 0 {
		t.Fatal("A4 never fired after A2")
	}
	if got[0].Rule.Type != policy.A4 || got[0].CellID != interNeighbor.ID {
		t.Fatalf("report = %+v", got[0])
	}
	// The total delay must include A2 TTT + reconfig + A4 TTT ≥ 0.3 s.
	if got[0].ReadyAt-base < 0.3 {
		t.Fatalf("inter-frequency feedback too fast: %g s", got[0].ReadyAt-base)
	}
	if !e.GapsActive(got[0].ReadyAt) {
		t.Fatal("gaps should be active")
	}
}

func TestMeasEngineCrossBandSkipsGatesAndGaps(t *testing.T) {
	dep := testDeployment(t, 1.0)
	streams := sim.NewStreams(110)
	serving := dep.Cells[0]
	var interSibling *Cell
	for _, c := range serving.BS.Cells {
		if c.ID != serving.ID {
			interSibling = c
		}
	}
	if interSibling == nil {
		t.Fatal("no co-sited sibling")
	}
	// REM policy: single A3 rule over DD SNR covering any channel.
	pol := &policy.Policy{
		CellID: serving.ID, Channel: serving.Channel, UsesDDSNR: true,
		Rules: []policy.Rule{{Type: policy.A3, OffsetDB: 3, TTTSec: 0.04}},
	}
	e := NewMeasEngine(streams.Stream("meas"), dep, pol, serving.ID, DefaultREMMeasConfig())
	snap := snapshotWhere(map[int]float64{serving.ID: -100, interSibling.ID: -90})
	var got []Report
	for i := 0; i <= 40 && len(got) == 0; i++ {
		got = append(got, e.Tick(float64(i)*0.02, snap)...)
	}
	if len(got) == 0 {
		t.Fatal("cross-band report never produced")
	}
	if got[0].CellID != interSibling.ID {
		t.Fatalf("report cell %d, want sibling %d", got[0].CellID, interSibling.ID)
	}
	// The metric is a DD-SNR estimate near the true value (within a
	// few σ of the 1 dB estimation error).
	trueCR, _ := snap.Get(interSibling.ID)
	trueDD := trueCR.DDSNR
	if math.Abs(got[0].Metric-trueDD) > 5 {
		t.Fatalf("cross-band metric %g too far from true %g", got[0].Metric, trueDD)
	}
	if e.GapsActive(1) {
		t.Fatal("cross-band mode must not use measurement gaps")
	}
	// Feedback is fast: settle time plus a couple of intra periods+TTT.
	if got[0].ReadyAt > 0.5 {
		t.Fatalf("cross-band feedback took %g s", got[0].ReadyAt)
	}
}

func TestMeasEngineInterFrequencyScanIsSequential(t *testing.T) {
	// Two foreign channels: gap visits alternate, so the second
	// channel's first measurement lands a gap period after the first —
	// head-of-line blocking (§3.1).
	streams := sim.NewStreams(111)
	dep, err := NewLinearDeployment(streams.Stream("dep"), DeploymentConfig{
		Plan: geo.SitePlan{TrackLenM: 4000, SpacingM: 1600, OffsetM: 100},
		Bands: []BandConfig{
			{Channel: 100, FreqHz: 0.9e9, BandwidthMHz: 10, TxPowerDBm: 18},
			{Channel: 200, FreqHz: 1.8e9, BandwidthMHz: 10, TxPowerDBm: 18},
			{Channel: 300, FreqHz: 2.6e9, BandwidthMHz: 10, TxPowerDBm: 18},
		},
		CoSitedProb: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	serving := dep.Cells[0]
	pol := &policy.Policy{
		CellID: serving.ID, Channel: serving.Channel,
		Rules: []policy.Rule{
			{Type: policy.A2, ServThresh: -105, TTTSec: 0.04},
			{Type: policy.A4, NeighThresh: -100, TTTSec: 0.04, TargetChannel: 200, Stage: 1},
			{Type: policy.A4, NeighThresh: -100, TTTSec: 0.04, TargetChannel: 300, Stage: 1},
		},
	}
	e := NewMeasEngine(streams.Stream("meas"), dep, pol, serving.ID, DefaultLegacyMeasConfig())
	var c200, c300 *Cell
	for _, c := range serving.BS.Cells {
		switch c.Channel {
		case 200:
			c200 = c
		case 300:
			c300 = c
		}
	}
	snap := snapshotWhere(map[int]float64{serving.ID: -110, c200.ID: -90, c300.ID: -90})
	first := map[int]float64{}
	for i := 0; i <= 60; i++ {
		tt := float64(i) * 0.02
		for _, r := range e.Tick(tt, snap) {
			if _, ok := first[r.CellID]; !ok {
				first[r.CellID] = tt
			}
		}
	}
	if len(first) != 2 {
		t.Fatalf("reports for %d cells, want 2", len(first))
	}
	if first[c200.ID] == first[c300.ID] {
		t.Fatal("sequential gap scanning should separate the two channels' reports")
	}
}

func TestAlwaysGapsMode(t *testing.T) {
	dep := testDeployment(t, 1.0)
	streams := sim.NewStreams(112)
	serving := dep.Cells[0]
	pol := &policy.Policy{CellID: serving.ID, Channel: serving.Channel,
		Rules: []policy.Rule{{Type: policy.A3, OffsetDB: 3, TTTSec: 0.04}}}
	cfg := DefaultLegacyMeasConfig()
	cfg.AlwaysGaps = true
	e := NewMeasEngine(streams.Stream("m"), dep, pol, serving.ID, cfg)
	if !e.GapsActive(0) {
		t.Fatal("AlwaysGaps engine should have gaps from t=0")
	}
}

func TestStandaloneInterRuleArmsGaps(t *testing.T) {
	dep := testDeployment(t, 1.0)
	streams := sim.NewStreams(113)
	serving := dep.Cells[0]
	var foreign int
	for _, ch := range dep.Channels() {
		if ch != serving.Channel {
			foreign = ch
		}
	}
	pol := &policy.Policy{CellID: serving.ID, Channel: serving.Channel,
		Rules: []policy.Rule{{Type: policy.A4, NeighThresh: -106, TTTSec: 0.04, TargetChannel: foreign}}}
	e := NewMeasEngine(streams.Stream("m"), dep, pol, serving.ID, DefaultLegacyMeasConfig())
	if !e.GapsActive(0) {
		t.Fatal("stand-alone inter-frequency rule should arm gaps immediately")
	}
	// A staged rule must NOT arm gaps by itself.
	pol2 := &policy.Policy{CellID: serving.ID, Channel: serving.Channel,
		Rules: []policy.Rule{{Type: policy.A4, NeighThresh: -106, TTTSec: 0.04, TargetChannel: foreign, Stage: 1}}}
	e2 := NewMeasEngine(streams.Stream("m2"), dep, pol2, serving.ID, DefaultLegacyMeasConfig())
	if e2.GapsActive(0) {
		t.Fatal("staged rule armed gaps without A2")
	}
}

func TestItoaNegative(t *testing.T) {
	if got := itoa(-42); got != "-42" {
		t.Fatalf("itoa(-42) = %q", got)
	}
	if got := itoa(0); got != "0" {
		t.Fatalf("itoa(0) = %q", got)
	}
}
