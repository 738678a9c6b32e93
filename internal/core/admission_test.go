package core

import (
	"math/rand"
	"testing"
)

func TestAdmissionUnlimitedPicksStrongest(t *testing.T) {
	a := NewAdmission(0)
	target, ok := a.Select([]TargetCandidate{
		{CellID: 3, Metric: -5, Load: 900},
		{CellID: 1, Metric: 2, Load: 1000},
		{CellID: 2, Metric: -1, Load: 0},
	})
	if !ok || target != 1 {
		t.Fatalf("got (%d, %v), want (1, true)", target, ok)
	}
}

func TestAdmissionCapacitySkipsFullCells(t *testing.T) {
	a := NewAdmission(10)
	target, ok := a.Select([]TargetCandidate{
		{CellID: 1, Metric: 5, Load: 10}, // full
		{CellID: 2, Metric: 3, Load: 9},
		{CellID: 3, Metric: 4, Load: 10}, // full
	})
	if !ok || target != 2 {
		t.Fatalf("got (%d, %v), want (2, true)", target, ok)
	}
}

func TestAdmissionAllFullDefers(t *testing.T) {
	a := NewAdmission(1)
	_, ok := a.Select([]TargetCandidate{
		{CellID: 1, Metric: 5, Load: 1},
		{CellID: 2, Metric: 3, Load: 2},
	})
	if ok {
		t.Fatal("expected deferral when every candidate is at capacity")
	}
}

func TestAdmissionEmptyCandidates(t *testing.T) {
	if _, ok := NewAdmission(0).Select(nil); ok {
		t.Fatal("expected no selection from an empty candidate list")
	}
}

func TestAdmissionSpreadPrefersLeastLoaded(t *testing.T) {
	a := &Admission{Capacity: 100, SpreadMarginDB: 3}
	target, ok := a.Select([]TargetCandidate{
		{CellID: 1, Metric: 10, Load: 50},
		{CellID: 2, Metric: 8, Load: 5},   // within margin, much lighter
		{CellID: 3, Metric: 6.5, Load: 0}, // outside margin
	})
	if !ok || target != 2 {
		t.Fatalf("got (%d, %v), want (2, true)", target, ok)
	}
}

func TestAdmissionSpreadTieBreaksDeterministically(t *testing.T) {
	a := &Admission{Capacity: 0, SpreadMarginDB: 5}
	// Equal loads and metrics: lowest cell ID must win, in any order.
	orders := [][]TargetCandidate{
		{{CellID: 7, Metric: 1, Load: 2}, {CellID: 4, Metric: 1, Load: 2}},
		{{CellID: 4, Metric: 1, Load: 2}, {CellID: 7, Metric: 1, Load: 2}},
	}
	for _, cands := range orders {
		target, ok := a.Select(cands)
		if !ok || target != 4 {
			t.Fatalf("got (%d, %v), want (4, true)", target, ok)
		}
	}
}

// TestDecidePackedMatchesDecide fuzzes the struct-of-arrays admission
// path against the boxed one: for every generated candidate set —
// including metric ties, full cells, and spread-margin clusters — the
// two must return identical Decisions.
func TestDecidePackedMatchesDecide(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	admissions := []*Admission{
		{Capacity: 0},
		{Capacity: 3},
		{Capacity: 0, SpreadMarginDB: 3},
		{Capacity: 4, SpreadMarginDB: 5},
	}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(6) // 0..5 candidates, empty included
		cands := make([]TargetCandidate, n)
		var packed PackedCandidates
		packed.Reset()
		for i := range cands {
			cands[i] = TargetCandidate{
				CellID: 1 + rng.Intn(4),          // collisions likely
				Metric: float64(rng.Intn(8)) - 3, // coarse grid forces ties
				Load:   rng.Intn(5),
			}
			packed.Append(cands[i].CellID, cands[i].Metric, cands[i].Load)
		}
		for _, a := range admissions {
			want := a.Decide(cands)
			got := a.DecidePacked(&packed)
			if got != want {
				t.Fatalf("trial %d, admission %+v, cands %+v:\npacked %+v\nboxed  %+v",
					trial, a, cands, got, want)
			}
		}
	}
}
