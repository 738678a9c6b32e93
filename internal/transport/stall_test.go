package transport

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStallForOutageExceedsOutage(t *testing.T) {
	cfg := DefaultStallConfig()
	f := func(seed int64) bool {
		d := math.Abs(float64(seed%1000))/100 + 0.01 // 0.01..10.01 s
		st := StallForOutage(Outage{Start: 5, Duration: d}, cfg)
		// Stall covers the outage and overshoots by at most one RTO.
		return st.Duration >= d && st.Duration <= d+st.FinalRTO+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStallBackoffDoubles(t *testing.T) {
	cfg := DefaultStallConfig()
	// 2 s outage with 0.2 s base RTO: retransmissions at 0.2, 0.6,
	// 1.4, 3.0 — the 4th (RTO 1.6) lands past 2 s and succeeds.
	st := StallForOutage(Outage{Duration: 2}, cfg)
	if st.Retransmissions != 4 {
		t.Fatalf("retransmissions = %d, want 4", st.Retransmissions)
	}
	if math.Abs(st.Duration-3.0) > 1e-9 {
		t.Fatalf("stall = %g, want 3.0", st.Duration)
	}
	if math.Abs(st.FinalRTO-1.6) > 1e-9 {
		t.Fatalf("final RTO = %g, want 1.6", st.FinalRTO)
	}
}

// TestConfigNormalization: a zero config defaults to the standard
// timers, so it stalls exactly as DefaultStallConfig does.
func TestConfigNormalization(t *testing.T) {
	st := StallForOutage(Outage{Duration: 1}, StallConfig{})
	if st.Duration <= 1 {
		t.Fatal("zero config should default and still work")
	}
	got := StallForOutage(Outage{Duration: 2}, StallConfig{})
	if want := StallForOutage(Outage{Duration: 2}, DefaultStallConfig()); got != want {
		t.Fatalf("zero config stall %+v, want default-config stall %+v", got, want)
	}
}

func TestStallRTOCap(t *testing.T) {
	cfg := DefaultStallConfig()
	cfg.MaxRTOSec = 1.0
	st := StallForOutage(Outage{Duration: 10}, cfg)
	if st.FinalRTO > 1.0 {
		t.Fatalf("RTO %g exceeded cap", st.FinalRTO)
	}
}

func TestStallZeroOutage(t *testing.T) {
	st := StallForOutage(Outage{Start: 3, Duration: 0}, DefaultStallConfig())
	if st.Duration != 0 || st.Retransmissions != 0 {
		t.Fatalf("zero outage produced stall %+v", st)
	}
}

func TestReplayMergesOverlaps(t *testing.T) {
	stalls := ReplayStalls([]Outage{
		{Start: 0, Duration: 1},
		{Start: 0.5, Duration: 1}, // overlaps the first
		{Start: 10, Duration: 0.3},
	}, DefaultStallConfig())
	if len(stalls) != 2 {
		t.Fatalf("stalls = %d, want 2 after merging", len(stalls))
	}
	if stalls[0].Duration < 1.5 {
		t.Fatalf("merged stall %g should cover 1.5 s outage", stalls[0].Duration)
	}
	if empty := ReplayStalls(nil, DefaultStallConfig()); len(empty) != 0 {
		t.Fatal("empty replay should be empty")
	}
}

func TestLongerOutagesLongerStalls(t *testing.T) {
	// Monotonicity: stalls grow with outage duration — the mechanism
	// behind REM's Fig. 9a win (fewer/shorter outages).
	cfg := DefaultStallConfig()
	a := ReplayStalls([]Outage{{0, 1}, {20, 1}, {40, 1}}, cfg)
	b := ReplayStalls([]Outage{{0, 3}, {20, 3}, {40, 3}}, cfg)
	for i := range a {
		if b[i].Duration <= a[i].Duration {
			t.Fatalf("stall %d: %g for a 3 s outage ≤ %g for 1 s", i, b[i].Duration, a[i].Duration)
		}
	}
}

func TestStallConfigDefaulted(t *testing.T) {
	cases := []struct {
		name     string
		in       StallConfig
		wantBase float64
		wantMax  float64
	}{
		{"zero fills defaults", StallConfig{}, 0.2, 60},
		{"explicit values kept", StallConfig{BaseRTOSec: 0.5, MaxRTOSec: 30}, 0.5, 30},
		// A cap below the base pins to the base (constant backoff)
		// instead of jumping to the 60 s default: a caller asking for a
		// low cap wants a low cap.
		{"cap below base pins to base", StallConfig{BaseRTOSec: 1, MaxRTOSec: 0.5}, 1, 1},
		{"negative cap falls back to default", StallConfig{BaseRTOSec: 0.3, MaxRTOSec: -1}, 0.3, 60},
		{"default base above tiny cap", StallConfig{MaxRTOSec: 0.1}, 0.2, 0.2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.defaulted()
			if got.BaseRTOSec != tc.wantBase || got.MaxRTOSec != tc.wantMax {
				t.Fatalf("defaulted() base/max = %g/%g, want %g/%g",
					got.BaseRTOSec, got.MaxRTOSec, tc.wantBase, tc.wantMax)
			}
		})
	}
}

func TestStallConfigClampBelowBase(t *testing.T) {
	st := StallForOutage(Outage{Duration: 100}, StallConfig{BaseRTOSec: 1, MaxRTOSec: 0.5})
	if st.FinalRTO != 1 {
		t.Fatalf("final RTO = %g, want constant 1 (cap pinned to base)", st.FinalRTO)
	}
}

func TestStallRTOCapBelowBaseStaysConstant(t *testing.T) {
	// With the cap pinned at the base, backoff never grows: a long
	// outage retransmits every BaseRTOSec.
	st := StallForOutage(Outage{Duration: 10}, StallConfig{BaseRTOSec: 1, MaxRTOSec: 0.5})
	if st.FinalRTO != 1 {
		t.Fatalf("final RTO = %g, want constant 1", st.FinalRTO)
	}
	if st.Retransmissions != 10 {
		t.Fatalf("retransmissions = %d, want 10 (one per second)", st.Retransmissions)
	}
}

// TestStallParityWithTcpsim pins ReplayStalls to the stall lists the
// original stand-alone TCP model (the former internal/tcpsim Replay)
// produced for these outage lists and timer configs. The model of
// record survives as data: equality is by Float64bits, not tolerance.
func TestStallParityWithTcpsim(t *testing.T) {
	lists := [][]Outage{
		nil,
		{{Start: 1, Duration: 0.05}},
		{{Start: 0, Duration: 2}},
		{{Start: 0, Duration: 1}, {Start: 0.5, Duration: 1}, {Start: 10, Duration: 0.3}},
		{{Start: 30, Duration: 120}}, // long enough to hit the RTO cap
		{{Start: 5, Duration: 0.3}, {Start: 5.1, Duration: 0.1}, {Start: 7, Duration: 3}},
	}
	cfgs := []StallConfig{{}, {BaseRTOSec: 0.5, MaxRTOSec: 4}, {BaseRTOSec: 1, MaxRTOSec: 0.5}}
	// want[cfg][list]: {Start, Duration, FinalRTO, Retransmissions}.
	want := [][][]Stall{
		{
			nil,
			{{1, 0.2, 0.2, 1}},
			{{0, 3, 1.6, 4}},
			{{0, 3, 1.6, 4}, {10, 0.6000000000000001, 0.4, 2}},
			{{30, 162.2, 60, 10}},
			{{5, 0.6000000000000001, 0.4, 2}, {7, 3, 1.6, 4}},
		},
		{
			nil,
			{{1, 0.5, 0.5, 1}},
			{{0, 3.5, 2, 3}},
			{{0, 1.5, 1, 2}, {10, 0.5, 0.5, 1}},
			{{30, 123.5, 4, 33}},
			{{5, 0.5, 0.5, 1}, {7, 3.5, 2, 3}},
		},
		{
			nil,
			{{1, 1, 1, 1}},
			{{0, 2, 1, 2}},
			{{0, 2, 1, 2}, {10, 1, 1, 1}},
			{{30, 120, 1, 120}},
			{{5, 1, 1, 1}, {7, 3, 1, 3}},
		},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for ci, cfg := range cfgs {
		for li, outs := range lists {
			got, w := ReplayStalls(outs, cfg), want[ci][li]
			if len(got) != len(w) {
				t.Fatalf("cfg %d list %d: %d stalls, want %d", ci, li, len(got), len(w))
			}
			for i := range got {
				g := got[i]
				if !same(g.Start, w[i].Start) || !same(g.Duration, w[i].Duration) ||
					!same(g.FinalRTO, w[i].FinalRTO) || g.Retransmissions != w[i].Retransmissions {
					t.Fatalf("cfg %d list %d stall %d: %+v, want %+v", ci, li, i, g, w[i])
				}
			}
		}
	}
}
