package dsp

import (
	"math"
	"math/cmplx"
	"sort"
)

// SVD holds a (thin) singular value decomposition A = U·diag(S)·Vᴴ.
// U is Rows×r, V is Cols×r and S holds the r = min(Rows, Cols)
// singular values sorted in descending order.
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

// ComputeSVD factorizes a using the one-sided Jacobi method, which is
// simple, numerically robust and accurate for the modest grid sizes
// (tens to low hundreds per side) that delay-Doppler processing uses.
//
// The decomposition satisfies A ≈ U·diag(S)·Vᴴ with unitary-column U
// and V. Singular values are returned largest first, matching the
// "principal components first" truncation that cross-band estimation
// (paper §5.2) relies on.
func ComputeSVD(a *Matrix) *SVD {
	if a.Rows >= a.Cols {
		u, s, v := jacobiSVD(a)
		return &SVD{U: u, S: s, V: v}
	}
	// Work on Aᴴ and swap factors: A = (Aᴴ)ᴴ = (U'SV'ᴴ)ᴴ = V'SU'ᴴ.
	u, s, v := jacobiSVD(a.ConjT())
	return &SVD{U: v, S: s, V: u}
}

// jacobiSVD requires rows ≥ cols. It returns thin U (rows×cols),
// singular values (cols) and V (cols×cols), unsorted work happening
// internally; outputs are sorted descending.
func jacobiSVD(a *Matrix) (*Matrix, []float64, *Matrix) {
	m, n := a.Rows, a.Cols
	// The sweeps walk columns p and q top to bottom, so w (the columns
	// being orthogonalized) and v are held column-major: column j of wc
	// is wc[j*m:(j+1)*m]. Only the layout differs from a row-major loop;
	// every operation, and its order, is the same.
	wc := make([]complex128, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			wc[j*m+i] = a.Data[i*n+j]
		}
	}
	vc := make([]complex128, n*n) // V starts as the identity
	for i := 0; i < n; i++ {
		vc[i*n+i] = 1
	}

	const maxSweeps = 60
	tol := 1e-13
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			wp := wc[p*m : (p+1)*m]
			vp := vc[p*n : (p+1)*n]
			for q := p + 1; q < n; q++ {
				wq := wc[q*m : (q+1)*m]
				var alpha, beta float64
				var gamma complex128
				for i := range wp {
					ap := wp[i]
					aq := wq[i]
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
				for i := range wp {
					ap := wp[i]
					aq := wq[i]
					wp[i] = csC*ap - snPc*aq
					wq[i] = snP*ap + csC*aq
				}
				vq := vc[q*n : (q+1)*n]
				for i := range vp {
					pv, qv := vp[i], vq[i]
					vp[i] = csC*pv - snPc*qv
					vq[i] = snP*pv + csC*qv
				}
			}
		}
		if off < tol {
			break
		}
	}
	// Column norms are the singular values; normalizing the columns in
	// place gives U.
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		col := wc[j*m : (j+1)*m]
		norm := 0.0
		for _, c := range col {
			norm += real(c)*real(c) + imag(c)*imag(c)
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			inv := complex(1/norm, 0)
			for i := range col {
				col[i] *= inv
			}
		} else {
			// Zero singular value: the U column is zero. The callers
			// only consume columns with s[j] > 0.
			clear(col)
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
			uSorted.Data[i*n+newJ] = wc[oldJ*m+i]
		}
		for i := 0; i < n; i++ {
			vSorted.Data[i*n+newJ] = vc[oldJ*n+i]
		}
	}
	return uSorted, sSorted, vSorted
}

// Reconstruct multiplies the factors back together keeping only the
// first rank singular triplets (rank ≤ len(S); rank ≤ 0 keeps all).
func (d *SVD) Reconstruct(rank int) *Matrix {
	r := len(d.S)
	if rank > 0 && rank < r {
		r = rank
	}
	m := d.U.Rows
	n := d.V.Rows
	out := NewMatrix(m, n)
	for k := 0; k < r; k++ {
		sk := complex(d.S[k], 0)
		for i := 0; i < m; i++ {
			uik := d.U.At(i, k) * sk
			if uik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += uik * cmplx.Conj(d.V.At(j, k))
			}
		}
	}
	return out
}

// Rank returns the number of singular values above rel·S[0].
func (d *SVD) Rank(rel float64) int {
	if len(d.S) == 0 || d.S[0] == 0 {
		return 0
	}
	th := rel * d.S[0]
	n := 0
	for _, s := range d.S {
		if s > th {
			n++
		}
	}
	return n
}
