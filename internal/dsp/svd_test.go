package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, m, n int) *Matrix {
	a := NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range [][2]int{{1, 1}, {3, 3}, {5, 2}, {2, 5}, {12, 14}, {14, 12}, {20, 7}} {
		m, n := dims[0], dims[1]
		a := randMatrix(rng, m, n)
		d := ComputeSVD(a)
		rec := d.Reconstruct(0)
		diff := a.Sub(rec).FrobeniusNorm()
		if diff > 1e-9*(1+a.FrobeniusNorm()) {
			t.Errorf("%dx%d: reconstruction error %g", m, n, diff)
		}
	}
}

func TestSVDSingularValuesSortedNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, 9, 6)
	d := ComputeSVD(a)
	for i, s := range d.S {
		if s < 0 {
			t.Fatalf("singular value %d negative: %g", i, s)
		}
		if i > 0 && d.S[i] > d.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending: S[%d]=%g > S[%d]=%g", i, d.S[i], i-1, d.S[i-1])
		}
	}
}

func TestSVDUnitaryColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMatrix(rng, 10, 6)
	d := ComputeSVD(a)
	checkOrtho := func(name string, mat *Matrix) {
		g := mat.ConjT().Mul(mat)
		for i := 0; i < g.Rows; i++ {
			for j := 0; j < g.Cols; j++ {
				want := complex128(0)
				if i == j {
					want = 1
				}
				if cmplx.Abs(g.At(i, j)-want) > 1e-9 {
					t.Fatalf("%sᴴ%s[%d][%d] = %v, want %v", name, name, i, j, g.At(i, j), want)
				}
			}
		}
	}
	checkOrtho("U", d.U)
	checkOrtho("V", d.V)
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, complex(0, 5)) // singular value 5 with a phase
	a.Set(2, 2, 1)
	d := ComputeSVD(a)
	want := []float64{5, 3, 1}
	for i, w := range want {
		if math.Abs(d.S[i]-w) > 1e-10 {
			t.Fatalf("S = %v, want %v", d.S, want)
		}
	}
}

func TestSVDLowRankTruncation(t *testing.T) {
	// Build an exactly rank-2 matrix and verify rank detection and
	// truncated reconstruction.
	rng := rand.New(rand.NewSource(13))
	m, n, r := 8, 7, 2
	b := randMatrix(rng, m, r)
	c := randMatrix(rng, r, n)
	a := b.Mul(c)
	d := ComputeSVD(a)
	if got := d.Rank(1e-9); got != r {
		t.Fatalf("Rank = %d, want %d (S=%v)", got, r, d.S)
	}
	rec := d.Reconstruct(r)
	if diff := a.Sub(rec).FrobeniusNorm(); diff > 1e-9*a.FrobeniusNorm() {
		t.Fatalf("rank-%d reconstruction error %g", r, diff)
	}
}

func TestSVDFrobeniusInvariant(t *testing.T) {
	// ‖A‖F² == Σ σᵢ² for any matrix.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(10)
		n := 1 + r.Intn(10)
		a := randMatrix(r, m, n)
		d := ComputeSVD(a)
		sum := 0.0
		for _, s := range d.S {
			sum += s * s
		}
		fn := a.FrobeniusNorm()
		return math.Abs(sum-fn*fn) < 1e-8*(1+fn*fn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := NewMatrix(4, 3)
	d := ComputeSVD(a)
	for _, s := range d.S {
		if s != 0 {
			t.Fatalf("zero matrix has nonzero singular value %g", s)
		}
	}
	if d.Rank(1e-9) != 0 {
		t.Fatalf("zero matrix rank = %d, want 0", d.Rank(1e-9))
	}
}

func TestMatrixMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMatrix(rng, 5, 5)
	p := a.Mul(Identity(5))
	if diff := a.Sub(p).FrobeniusNorm(); diff > 1e-12 {
		t.Fatalf("A·I != A (diff %g)", diff)
	}
}

func TestMatrixConjTInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randMatrix(rng, 4, 7)
	back := a.ConjT().ConjT()
	if diff := a.Sub(back).FrobeniusNorm(); diff != 0 {
		t.Fatalf("(Aᴴ)ᴴ != A (diff %g)", diff)
	}
}

func TestMatrixGridRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randMatrix(rng, 3, 6)
	g := a.AsGrid()
	if g.M != a.Rows || g.N != a.Cols {
		t.Fatalf("AsGrid shape %dx%d, want %dx%d", g.M, g.N, a.Rows, a.Cols)
	}
	b := g.Matrix()
	if diff := a.Sub(b).FrobeniusNorm(); diff != 0 {
		t.Fatalf("grid round trip changed matrix (diff %g)", diff)
	}
	// Both views share storage with a.
	g.Data[0] += 1
	if a.Data[0] != g.Data[0] {
		t.Fatal("AsGrid is not a zero-copy view")
	}
}

func TestMatrixRowColAccessors(t *testing.T) {
	a := NewMatrix(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, complex(float64(i), float64(j)))
		}
	}
	r := a.Row(1)
	if len(r) != 3 || r[2] != complex(1, 2) {
		t.Fatalf("Row(1) = %v", r)
	}
	c := a.Col(2)
	if len(c) != 2 || c[0] != complex(0, 2) || c[1] != complex(1, 2) {
		t.Fatalf("Col(2) = %v", c)
	}
}

func BenchmarkSVD12x14(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	a := randMatrix(rng, 12, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeSVD(a)
	}
}

// jacobiSVDRowMajor is the one-sided Jacobi loop as it ran on the
// row-major matrices before the sweeps moved to column-major copies.
// It is kept as the reference that jacobiSVD must match bit for bit.
func jacobiSVDRowMajor(a *Matrix) (*Matrix, []float64, *Matrix) {
	m, n := a.Rows, a.Cols
	w := a.Clone() // columns orthogonalized in place
	v := Identity(n)

	const maxSweeps = 60
	tol := 1e-13
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta float64
				var gamma complex128
				for i := 0; i < m; i++ {
					ap := w.Data[i*n+p]
					aq := w.Data[i*n+q]
					alpha += real(ap)*real(ap) + imag(ap)*imag(ap)
					beta += real(aq)*real(aq) + imag(aq)*imag(aq)
					gamma += cmplx.Conj(ap) * aq
				}
				g := cmplx.Abs(gamma)
				if g <= tol*math.Sqrt(alpha*beta) || g == 0 {
					continue
				}
				off += g
				// Complex Jacobi rotation that annihilates
				// w_pᴴ·w_q. Factor out the phase of gamma, then
				// apply the classical real rotation.
				phase := gamma / complex(g, 0)
				tau := (beta - alpha) / (2 * g)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				cs := 1 / math.Sqrt(1+t*t)
				sn := cs * t
				csC := complex(cs, 0)
				snP := complex(sn, 0) * phase
				snPc := complex(sn, 0) * cmplx.Conj(phase)
				for i := 0; i < m; i++ {
					ap := w.Data[i*n+p]
					aq := w.Data[i*n+q]
					w.Data[i*n+p] = csC*ap - snPc*aq
					w.Data[i*n+q] = snP*ap + csC*aq
				}
				for i := 0; i < n; i++ {
					vp := v.Data[i*n+p]
					vq := v.Data[i*n+q]
					v.Data[i*n+p] = csC*vp - snPc*vq
					v.Data[i*n+q] = snP*vp + csC*vq
				}
			}
		}
		if off < tol {
			break
		}
	}

	// Column norms are the singular values; normalize to get U.
	s := make([]float64, n)
	u := NewMatrix(m, n)
	for j := 0; j < n; j++ {
		norm := 0.0
		for i := 0; i < m; i++ {
			c := w.Data[i*n+j]
			norm += real(c)*real(c) + imag(c)*imag(c)
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			inv := complex(1/norm, 0)
			for i := 0; i < m; i++ {
				u.Data[i*n+j] = w.Data[i*n+j] * inv
			}
		} else {
			// Zero singular value: leave the U column zero. The
			// callers only consume columns with s[j] > 0.
			_ = j
		}
	}

	// Sort descending by singular value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s[idx[a]] > s[idx[b]] })
	sSorted := make([]float64, n)
	uSorted := NewMatrix(m, n)
	vSorted := NewMatrix(n, n)
	for newJ, oldJ := range idx {
		sSorted[newJ] = s[oldJ]
		for i := 0; i < m; i++ {
			uSorted.Data[i*n+newJ] = u.Data[i*n+oldJ]
		}
		for i := 0; i < n; i++ {
			vSorted.Data[i*n+newJ] = v.Data[i*n+oldJ]
		}
	}
	return uSorted, sSorted, vSorted
}

// TestJacobiSVDMatchesRowMajorReference pins the column-major sweeps
// bitwise to the row-major reference: tall, square and rank-deficient
// inputs, including the 128×64 shape cross-band estimation factors.
func TestJacobiSVDMatchesRowMajorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lowRank := NewMatrix(24, 12)
	for k := 0; k < 3; k++ {
		u, v := randMatrix(rng, 24, 1), randMatrix(rng, 1, 12)
		for i := 0; i < 24; i++ {
			for j := 0; j < 12; j++ {
				lowRank.Data[i*12+j] += u.Data[i] * v.Data[j]
			}
		}
	}
	for _, a := range []*Matrix{randMatrix(rng, 128, 64), randMatrix(rng, 9, 9),
		randMatrix(rng, 40, 3), lowRank, Identity(5)} {
		u, s, v := jacobiSVD(a)
		ru, rs, rv := jacobiSVDRowMajor(a)
		same := func(name string, got, want []complex128) {
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("%dx%d: %s[%d] = %v, reference %v", a.Rows, a.Cols, name, i, got[i], want[i])
				}
			}
		}
		same("U", u.Data, ru.Data)
		same("V", v.Data, rv.Data)
		for i := range rs {
			if math.Float64bits(s[i]) != math.Float64bits(rs[i]) {
				t.Fatalf("%dx%d: S[%d] = %v, reference %v", a.Rows, a.Cols, i, s[i], rs[i])
			}
		}
	}
}
