package policy

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkTheorem2Naive is the plain triple loop CheckTheorem2 replaced:
// it re-sorts row j's targets for every (i, j) pair and tests every k.
// It is the reference the row-minimum pruning must reproduce exactly.
func checkTheorem2Naive(t OffsetTable, g *CoverageGraph) []Violation {
	var out []Violation
	covers := func(a, b int) bool {
		if g == nil {
			return true
		}
		return g.Overlaps(a, b)
	}
	var is []int
	for i := range t {
		is = append(is, i)
	}
	sort.Ints(is)
	for _, i := range is {
		var js []int
		for j := range t[i] {
			js = append(js, j)
		}
		sort.Ints(js)
		for _, j := range js {
			if !covers(i, j) {
				continue
			}
			dij := t[i][j]
			var ks []int
			for k := range t[j] {
				ks = append(ks, k)
			}
			sort.Ints(ks)
			for _, k := range ks {
				if k == j || !covers(j, k) {
					continue
				}
				if sum := dij + t[j][k]; sum < 0 {
					out = append(out, Violation{I: i, J: j, K: k, Sum: sum})
				}
			}
		}
	}
	return out
}

// randomOffsetTable draws a table over a sparse set of cell IDs: rows
// with gaps, targets that have no row of their own, self entries, and
// (when special) ±Inf, NaN and signed-zero offsets.
func randomOffsetTable(rng *rand.Rand, cells int, special bool) (OffsetTable, []int) {
	ids := rng.Perm(3 * cells)[:cells]
	tab := NewOffsetTable()
	for _, i := range ids {
		if rng.Intn(8) == 0 {
			continue // a cell with no configured offsets
		}
		for _, j := range ids {
			if rng.Intn(3) == 0 {
				continue
			}
			d := math.Round((rng.Float64()*16-10)*4) / 4
			if special {
				switch rng.Intn(12) {
				case 0:
					d = math.Inf(1)
				case 1:
					d = math.Inf(-1)
				case 2:
					d = math.NaN()
				case 3:
					d = math.Copysign(0, -1)
				}
			}
			tab.Set(i, j, d)
		}
		if rng.Intn(4) == 0 {
			tab.Set(i, 1000+rng.Intn(5), rng.Float64()*8-6) // target with no row
		}
	}
	return tab, ids
}

// TestCheckTheorem2MatchesNaive pins the pruned check to the triple
// loop on randomized tables: the same violations, in the same order,
// with bit-identical sums, with and without a coverage graph.
func TestCheckTheorem2MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	total := 0
	for trial := 0; trial < 400; trial++ {
		cells := 2 + rng.Intn(29)
		tab, ids := randomOffsetTable(rng, cells, trial%2 == 1)
		var g *CoverageGraph
		if trial%4 >= 2 {
			g = NewCoverageGraph()
			for _, a := range ids {
				for _, b := range ids {
					if a < b && rng.Intn(2) == 0 {
						g.AddOverlap(a, b)
					}
				}
			}
		}
		got, want := CheckTheorem2(tab, g), checkTheorem2Naive(tab, g)
		total += len(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%d cells, graph %v): %d violations, naive %d",
				trial, cells, g != nil, len(got), len(want))
		}
		for n := range want {
			a, b := got[n], want[n]
			if a.I != b.I || a.J != b.J || a.K != b.K || math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
				t.Fatalf("trial %d violation %d = %+v, naive %+v", trial, n, a, b)
			}
		}
	}
	if total == 0 {
		t.Fatal("no trial produced a violation; the comparison is vacuous")
	}
}

// TestCheckTheorem2SpecialValues pins the pruning's edge cases by hand:
// a NaN offset never counts as the row minimum, -Inf meets +Inf as a
// NaN sum (no violation), and -Inf meets a finite offset as a -Inf sum.
func TestCheckTheorem2SpecialValues(t *testing.T) {
	tab := NewOffsetTable()
	tab.Set(1, 2, -3)
	tab.Set(2, 4, 2)
	tab.Set(2, 5, 5)
	tab.Set(2, 9, math.NaN()) // last in row 2, so a NaN-taking minimum would end on it
	tab.Set(3, 2, math.Inf(-1))
	tab.Set(2, 1, math.Inf(1))
	want := []Violation{
		{I: 1, J: 2, K: 4, Sum: -1},
		{I: 3, J: 2, K: 4, Sum: math.Inf(-1)},
		{I: 3, J: 2, K: 5, Sum: math.Inf(-1)},
	}
	got := CheckTheorem2(tab, nil)
	if len(got) != len(want) {
		t.Fatalf("violations = %v, want %v", got, want)
	}
	for n := range want {
		if got[n] != want[n] {
			t.Fatalf("violation %d = %+v, want %+v", n, got[n], want[n])
		}
	}
}
