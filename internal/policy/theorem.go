package policy

import (
	"fmt"
	"math"
	"sort"
)

// OffsetTable holds the A3 offsets Δ^{i→j} of a REM-simplified policy
// set: offset[i][j] is the dB margin by which cell j's delay-Doppler
// SNR must exceed cell i's before i hands the client to j.
type OffsetTable map[int]map[int]float64

// NewOffsetTable creates an empty table.
func NewOffsetTable() OffsetTable { return make(OffsetTable) }

// Set records Δ^{i→j}.
func (t OffsetTable) Set(i, j int, delta float64) {
	if t[i] == nil {
		t[i] = make(map[int]float64)
	}
	t[i][j] = delta
}

// Get returns Δ^{i→j} and whether it is configured.
func (t OffsetTable) Get(i, j int) (float64, bool) {
	v, ok := t[i][j]
	return v, ok
}

// Violation is one breach of Theorem 2's condition
// Δ^{i→j} + Δ^{j→k} ≥ 0 over a co-covering triple (i, j, k); i may
// equal k (the two-cell ping-pong case).
type Violation struct {
	I, J, K int
	Sum     float64
}

func (v Violation) String() string {
	return fmt.Sprintf("Δ(%d→%d)+Δ(%d→%d) = %.2f < 0", v.I, v.J, v.J, v.K, v.Sum)
}

// CheckTheorem2 verifies the paper's Theorem 2 condition over every
// configured offset pair that shares coverage: for any cells c_i, c_j,
// c_k covering the same area (k may equal i, j must differ from both),
// Δ^{i→j} + Δ^{j→k} ≥ 0. A nil coverage graph treats all cells as
// co-covering (the conservative reading).
//
// Each row j is prepared once per call: its co-covering targets k ≠ j
// in ascending order with their offsets, and the smallest offset. A
// pair (i, j) whose Δ^{i→j} plus that minimum is not negative is
// skipped: rounded float addition is monotone, so no Δ^{j→k} can give
// a negative sum (a NaN sum never does, and the minimum ignores NaN).
// The violations equal the plain triple loop's, in the same order. A
// table with few violations costs O(n²); only pairs that can violate
// scan row j.
func CheckTheorem2(t OffsetTable, g *CoverageGraph) []Violation {
	var out []Violation
	covers := func(a, b int) bool {
		if g == nil {
			return true
		}
		return g.Overlaps(a, b)
	}
	type entry struct {
		k int
		d float64
	}
	type row struct {
		all  []int   // every configured target, ascending
		next []entry // co-covering targets k ≠ j, ascending
		min  float64 // smallest non-NaN d in next; +Inf if none
	}
	// Deterministic iteration order for reproducible reports.
	var is []int
	for i := range t {
		is = append(is, i)
	}
	sort.Ints(is)
	rows := make(map[int]*row, len(is))
	for _, j := range is {
		r := &row{
			all:  make([]int, 0, len(t[j])),
			next: make([]entry, 0, len(t[j])),
			min:  math.Inf(1),
		}
		for k := range t[j] {
			r.all = append(r.all, k)
		}
		sort.Ints(r.all)
		for _, k := range r.all {
			if k == j || !covers(j, k) {
				continue
			}
			d := t[j][k]
			r.next = append(r.next, entry{k, d})
			if d < r.min {
				r.min = d
			}
		}
		rows[j] = r
	}
	for _, i := range is {
		for _, j := range rows[i].all {
			if !covers(i, j) {
				continue
			}
			rj := rows[j]
			if rj == nil {
				continue
			}
			dij := t[i][j]
			if !(dij+rj.min < 0) {
				continue
			}
			for _, e := range rj.next {
				if sum := dij + e.d; sum < 0 {
					out = append(out, Violation{I: i, J: j, K: e.k, Sum: sum})
				}
			}
		}
	}
	return out
}

// EnforceTheorem2 minimally raises offsets until Theorem 2 holds,
// returning the number of adjustments. Each violating sum raises the
// smaller (more negative) of the two offsets just enough to zero the
// sum; since offsets only increase and any all-non-negative table is
// conflict-free, the loop terminates. This is the "update thresholds
// per Theorem 2 and 3" repair the paper evaluates in Fig. 15.
func EnforceTheorem2(t OffsetTable, g *CoverageGraph) int {
	adjust := 0
	for round := 0; round < 1000; round++ {
		vs := CheckTheorem2(t, g)
		if len(vs) == 0 {
			return adjust
		}
		for _, v := range vs {
			dij := t[v.I][v.J]
			djk := t[v.J][v.K]
			if dij+djk >= 0 {
				continue // fixed by an earlier adjustment this round
			}
			if dij < djk {
				t.Set(v.I, v.J, -djk)
			} else {
				t.Set(v.J, v.K, -dij)
			}
			adjust++
		}
	}
	// Safety net: clamp any remaining negative offsets to zero, which
	// trivially satisfies the theorem.
	for i := range t {
		for j, d := range t[i] {
			if d < 0 {
				t.Set(i, j, 0)
				adjust++
			}
		}
	}
	return adjust
}

// SimulateHandoverChain checks for persistent loops by direct
// simulation, as an executable cross-check of Theorem 2's proof: given
// fixed per-cell SNRs, it follows the best-A3-candidate handover chain
// from each starting cell and reports a loop if any state repeats.
// Theorem 2-compliant tables must never loop for any SNR assignment.
func SimulateHandoverChain(t OffsetTable, snr map[int]float64, start int, maxSteps int) (visited []int, looped bool) {
	cur := start
	seen := map[int]int{cur: 0}
	visited = append(visited, cur)
	for step := 1; step <= maxSteps; step++ {
		next, ok := bestTarget(t, snr, cur)
		if !ok {
			return visited, false
		}
		visited = append(visited, next)
		if _, dup := seen[next]; dup {
			return visited, true
		}
		seen[next] = step
		cur = next
	}
	return visited, true // did not settle within maxSteps: treat as loop
}

// bestTarget returns the SNR-best cell j satisfying cell cur's A3 rule
// SNR_j > SNR_cur + Δ^{cur→j}.
func bestTarget(t OffsetTable, snr map[int]float64, cur int) (int, bool) {
	best, bestSNR := 0, 0.0
	found := false
	var js []int
	for j := range t[cur] {
		js = append(js, j)
	}
	sort.Ints(js)
	for _, j := range js {
		sj, ok := snr[j]
		if !ok {
			continue
		}
		if sj > snr[cur]+t[cur][j] {
			if !found || sj > bestSNR {
				best, bestSNR, found = j, sj, true
			}
		}
	}
	return best, found
}
