package trace

import (
	"math"
	"testing"

	"rem/internal/mobility"
	"rem/internal/policy"
	"rem/internal/sim"
)

func TestDescribeDatasets(t *testing.T) {
	for _, ds := range All() {
		if ds.Name == "" || len(ds.Bands) == 0 || ds.SiteSpacingM <= 0 {
			t.Fatalf("dataset %v incomplete: %+v", ds.ID, ds)
		}
		if len(ds.SpeedBucketsKmh) == 0 {
			t.Fatalf("dataset %v has no speed buckets", ds.ID)
		}
		if ds.Mix.IntraTTTSec <= 0 || len(ds.Mix.InterTTTChoices) == 0 {
			t.Fatalf("dataset %v has no TTT config", ds.ID)
		}
	}
	if !Describe(BeijingShanghai).AlternateAnchor || !Describe(BeijingTaiyuan).AlternateAnchor {
		t.Fatal("HSR datasets should alternate anchors")
	}
	if got := BucketSpeedKmh([2]float64{200, 300}); got != 275 {
		t.Fatalf("BucketSpeedKmh = %g", got)
	}
}

func TestBuildValidation(t *testing.T) {
	ds := Describe(BeijingShanghai)
	if _, err := Build(BuildConfig{Dataset: ds, SpeedKmh: 300, Duration: 0}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := Build(BuildConfig{Dataset: ds, SpeedKmh: 0, Duration: 100}); err == nil {
		t.Fatal("zero speed accepted")
	}
	if _, err := Build(BuildConfig{Dataset: ds, SpeedKmh: 300, Duration: 100, Mode: Mode(99)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	cfg := BuildConfig{Dataset: Describe(BeijingTaiyuan), SpeedKmh: 275, Mode: Legacy, Duration: 120, Seed: 5}
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := mobility.Run(a.Streams, a.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := mobility.Run(b.Streams, b.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Handovers) != len(rb.Handovers) || len(ra.Failures) != len(rb.Failures) {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d handovers/failures",
			len(ra.Handovers), len(ra.Failures), len(rb.Handovers), len(rb.Failures))
	}
	for i := range ra.Handovers {
		if ra.Handovers[i] != rb.Handovers[i] {
			t.Fatalf("handover %d differs", i)
		}
	}
}

func TestBuildModesDiffer(t *testing.T) {
	base := BuildConfig{Dataset: Describe(BeijingTaiyuan), SpeedKmh: 275, Duration: 60, Seed: 9}

	leg := base
	leg.Mode = Legacy
	bl, err := Build(leg)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Scenario.OTFSSignaling || bl.Scenario.MeasCfg.CrossBand || bl.Scenario.MeasCfg.UseDDSNR {
		t.Fatal("legacy scenario has REM features enabled")
	}
	// Legacy policies keep multi-stage A2 gates and A4/A5 rules.
	hasStaged := false
	for _, p := range bl.Policies {
		for _, r := range p.Rules {
			if r.Stage == 1 {
				hasStaged = true
			}
		}
	}
	if !hasStaged {
		t.Fatal("legacy policies lost their multi-stage rules")
	}

	rem := base
	rem.Mode = REM
	br, err := Build(rem)
	if err != nil {
		t.Fatal(err)
	}
	if !br.Scenario.OTFSSignaling || !br.Scenario.MeasCfg.CrossBand || !br.Scenario.MeasCfg.UseDDSNR {
		t.Fatal("REM scenario missing REM features")
	}
	for id, p := range br.Policies {
		if !p.UsesDDSNR {
			t.Fatalf("cell %d policy not DD-SNR based", id)
		}
		for _, r := range p.Rules {
			// Handover rules must all be rewritten to A3; A1/A2 gates
			// may survive for channels with no co-sited site.
			if r.IsHandoverRule() && r.Type != policy.A3 {
				t.Fatalf("cell %d kept non-A3 handover rule %v", id, r.Type)
			}
		}
	}
	// The enforced offset table attached to REM policies must satisfy
	// Theorem 2.
	tab := policy.NewOffsetTable()
	for id, p := range br.Policies {
		for j, d := range p.PairOffsets {
			_ = j
			_ = d
			tab.Set(id, j, d)
		}
	}
	if vs := policy.CheckTheorem2(tab, br.Coverage); len(vs) != 0 {
		t.Fatalf("REM offsets violate Theorem 2: %v", vs[:min2(3, len(vs))])
	}

	noCB := base
	noCB.Mode = REMNoCrossBand
	bn, err := Build(noCB)
	if err != nil {
		t.Fatal(err)
	}
	if bn.Scenario.MeasCfg.CrossBand {
		t.Fatal("ablation mode still has cross-band enabled")
	}

	fix := base
	fix.Mode = LegacyFixedPolicy
	bf, err := Build(fix)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Scenario.OTFSSignaling {
		t.Fatal("fixed-policy mode must stay on legacy signaling")
	}
	// Its pair offsets must satisfy Theorem 2 as well.
	tab2 := policy.NewOffsetTable()
	for id, p := range bf.Policies {
		for j, d := range p.PairOffsets {
			tab2.Set(id, j, d)
		}
	}
	if vs := policy.CheckTheorem2(tab2, bf.Coverage); len(vs) != 0 {
		t.Fatalf("fixed-policy offsets violate Theorem 2: %v", vs[:min2(3, len(vs))])
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestGeneratePoliciesMix(t *testing.T) {
	ds := Describe(BeijingTaiyuan)
	b, err := Build(BuildConfig{Dataset: ds, SpeedKmh: 250, Mode: Legacy, Duration: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	proactive, total := 0, 0
	for _, p := range b.Policies {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, r := range p.Rules {
			if r.Type == policy.A3 && r.TargetChannel == p.Channel {
				total++
				if r.OffsetDB < 0 {
					proactive++
				}
			}
		}
	}
	frac := float64(proactive) / float64(total)
	if math.Abs(frac-ds.Mix.ProactiveFrac) > 0.12 {
		t.Fatalf("proactive fraction = %.2f, want ≈%.2f", frac, ds.Mix.ProactiveFrac)
	}
}

func TestGeneratedPoliciesContainConflicts(t *testing.T) {
	// The legacy policy population must exhibit Table 3 style
	// conflicts, dominated by intra-frequency A3-A3.
	b, err := Build(BuildConfig{Dataset: Describe(BeijingTaiyuan), SpeedKmh: 250, Mode: Legacy, Duration: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := policy.DetectAllConflicts(b.Policies, b.Coverage, policy.DefaultMetricRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) == 0 {
		t.Fatal("no conflicts in the legacy policy population")
	}
	byLabel := policy.CountByLabel(cs)
	if byLabel["A3-A3"] == 0 {
		t.Fatalf("no A3-A3 conflicts: %v", byLabel)
	}

	// REM-simplified + enforced policies must have none.
	br, err := Build(BuildConfig{Dataset: Describe(BeijingTaiyuan), SpeedKmh: 250, Mode: REM, Duration: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Pair conflicts must be checked against effective (pair-override)
	// offsets; materialize them into rule form per pair.
	for aID, pa := range br.Policies {
		for _, bID := range br.Coverage.Neighbors(aID) {
			if aID >= bID {
				continue
			}
			pb := br.Policies[bID]
			da := effectiveA3(pa, bID, br.Channels[bID])
			db := effectiveA3(pb, aID, br.Channels[aID])
			if da == nil || db == nil {
				continue
			}
			a := &policy.Policy{CellID: aID, Channel: br.Channels[aID], Rules: []policy.Rule{*da}}
			bb := &policy.Policy{CellID: bID, Channel: br.Channels[bID], Rules: []policy.Rule{*db}}
			if got := policy.DetectPairConflicts(a, bb, policy.DefaultMetricRange()); len(got) != 0 {
				t.Fatalf("REM pair (%d,%d) still conflicts: %+v", aID, bID, got)
			}
		}
	}
}

// effectiveA3 returns the pair-effective A3 rule of p toward a target.
func effectiveA3(p *policy.Policy, targetCell, targetCh int) *policy.Rule {
	for _, r := range p.Rules {
		if r.Type != policy.A3 {
			continue
		}
		if r.TargetChannel != 0 && r.TargetChannel != targetCh {
			continue
		}
		nr := r
		nr.OffsetDB = p.A3OffsetFor(r, targetCell)
		return &nr
	}
	return nil
}

func TestGenerateHoles(t *testing.T) {
	streams := sim.NewStreams(11)
	holes := generateHoles(streams.Stream("h"), 200000, 36000)
	if len(holes) == 0 {
		t.Fatal("no holes generated over 200 km")
	}
	for _, h := range holes {
		if h.EndX <= h.StartX || h.ExtraLossDB <= 0 {
			t.Fatalf("bad hole %+v", h)
		}
		if l := h.EndX - h.StartX; l < 80 || l > 200 {
			t.Fatalf("hole length %g out of range", l)
		}
	}
	if holes := generateHoles(streams.Stream("h2"), 100000, 0); holes != nil {
		t.Fatal("everyM=0 should disable holes")
	}
}

func TestEndToEndSmoke(t *testing.T) {
	// One short end-to-end run per mode: must produce handovers and
	// plausible statistics without error.
	for _, mode := range []Mode{Legacy, REM, REMNoCrossBand, LegacyFixedPolicy} {
		b, err := Build(BuildConfig{
			Dataset: Describe(BeijingShanghai), SpeedKmh: 300,
			Mode: mode, Duration: 200, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := mobility.Run(b.Streams, b.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Handovers) < 5 {
			t.Fatalf("%v: only %d handovers in 200 s", mode, len(res.Handovers))
		}
		if res.FailureRatio() > 0.5 {
			t.Fatalf("%v: implausible failure ratio %g", mode, res.FailureRatio())
		}
		if len(res.FeedbackDelays) == 0 {
			t.Fatalf("%v: no feedback delays recorded", mode)
		}
		if SignalingOverheadEstimate(res) <= 0 {
			t.Fatalf("%v: no signaling accounted", mode)
		}
	}
}

func TestStringersAndDescribe5G(t *testing.T) {
	if LowMobility.String() == "" || BeijingTaiyuan.String() == "" || BeijingShanghai.String() == "" {
		t.Fatal("dataset stringers empty")
	}
	if DatasetID(99).String() == LowMobility.String() {
		t.Fatal("unknown dataset mislabeled")
	}
	for _, m := range []Mode{Legacy, REM, REMNoCrossBand, LegacyFixedPolicy, Mode(99)} {
		if m.String() == "" {
			t.Fatalf("mode %d has empty string", int(m))
		}
	}
	ds := Describe5G()
	if ds.NRMu != 3 || ds.BlockageEveryM <= 0 || len(ds.Bands) != 2 {
		t.Fatalf("5G projection descriptor incomplete: %+v", ds)
	}
	if ds.Bands[1].FreqHz < 10e9 {
		t.Fatal("5G projection should carry a mmWave band")
	}
}

func TestGenerateBlockages(t *testing.T) {
	streams := sim.NewStreams(12)
	bs := generateBlockages(streams.Stream("b"), 100000, 2000)
	if len(bs) < 20 {
		t.Fatalf("only %d blockages over 100 km at 2 km spacing", len(bs))
	}
	for _, b := range bs {
		if b.MinFreqHz < 10e9 {
			t.Fatal("blockage must be mmWave-selective")
		}
		if l := b.EndX - b.StartX; l < 30 || l > 80 {
			t.Fatalf("blockage length %g out of range", l)
		}
	}
	if got := generateBlockages(streams.Stream("b2"), 100000, 0); got != nil {
		t.Fatal("zero spacing should disable blockages")
	}
}

func TestBuild5GProjection(t *testing.T) {
	b, err := Build(BuildConfig{
		Dataset: Describe5G(), SpeedKmh: 330, Mode: REM, Duration: 100, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// NR µ=3 numerology must reach the radio config.
	if b.Scenario.Env.Cfg.SymbolT >= 66e-6 {
		t.Fatalf("5G scenario kept the LTE symbol time %g", b.Scenario.Env.Cfg.SymbolT)
	}
	res, err := mobility.Run(b.Streams, b.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if res.HandoverCount() == 0 {
		t.Fatal("no handovers in the 5G projection")
	}
}

// BenchmarkBuildFleetShared builds one shared REM world for a 1200 s
// Beijing-Shanghai run: deployment, policy simplification and Theorem 2
// enforcement over the complete cell graph, the set-up a long served
// run pays before its first epoch.
func BenchmarkBuildFleetShared(b *testing.B) {
	cfg := FleetConfig{BuildConfig: BuildConfig{
		Dataset: Describe(BeijingShanghai), Mode: REM,
		SpeedKmh: 300, Duration: 1200, Seed: 1,
	}}
	var shared *Shared
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if shared, err = BuildFleetShared(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(shared.Dep.Cells)), "cells")
}
