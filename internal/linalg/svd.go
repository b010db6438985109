package linalg

import (
	"fmt"
	"math"
	"sort"
)

// SVDFactors holds a thin singular value decomposition A = U·diag(S)·Vᵀ
// where A is m×n (m ≥ n), U is m×n with orthonormal columns, S holds the
// singular values in descending order, and V is n×n orthogonal.
type SVDFactors struct {
	U *Matrix
	S []float64
	V *Matrix
}

// SVD computes a thin singular value decomposition of a using the
// one-sided Jacobi method (Hestenes): pairs of columns are repeatedly
// orthogonalized by plane rotations until the column set is orthogonal;
// the column norms are then the singular values.
//
// One-sided Jacobi is slower than bidiagonalization-based methods but is
// simple, numerically robust, and accurate for the tall-thin matrices
// used by the attack. For very tall matrices where speed matters and a
// modest accuracy loss is acceptable, see ThinSVDGram.
func SVD(a *Matrix) (*SVDFactors, error) {
	m, n := a.Dims()
	if m < n {
		// Factor the transpose and swap the roles of U and V.
		f, err := SVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVDFactors{U: f.V, S: f.S, V: f.U}, nil
	}
	if n == 0 {
		return &SVDFactors{U: NewMatrix(m, 0), S: nil, V: NewMatrix(0, 0)}, nil
	}

	// Work column-major for cache-friendly column rotations.
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		cols[j] = a.Col(j)
	}
	v := Identity(n)

	const tol = 1e-14
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				alpha := Dot(cols[p], cols[p])
				beta := Dot(cols[q], cols[q])
				gamma := Dot(cols[p], cols[q])
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				rotated = true
				// Compute the rotation that zeroes the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				cp, cq := cols[p], cols[q]
				for i := range cp {
					xp, xq := cp[i], cq[i]
					cp[i] = c*xp - s*xq
					cq[i] = s*xp + c*xq
				}
				for i := 0; i < n; i++ {
					vp, vq := v.At(i, p), v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if !rotated {
			break
		}
	}

	// Singular values are the column norms; U columns are the normalized
	// rotated columns.
	type pair struct {
		sigma float64
		idx   int
	}
	pairs := make([]pair, n)
	for j := 0; j < n; j++ {
		pairs[j] = pair{sigma: Norm2(cols[j]), idx: j}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].sigma > pairs[j].sigma })

	u := NewMatrix(m, n)
	s := make([]float64, n)
	vout := NewMatrix(n, n)
	for k, p := range pairs {
		s[k] = p.sigma
		col := cols[p.idx]
		if p.sigma > 0 {
			inv := 1 / p.sigma
			for i := 0; i < m; i++ {
				u.Set(i, k, col[i]*inv)
			}
		}
		for i := 0; i < n; i++ {
			vout.Set(i, k, v.At(i, p.idx))
		}
	}
	return &SVDFactors{U: u, S: s, V: vout}, nil
}

// ThinSVDGram computes a thin SVD of a tall matrix a (m ≥ n) through the
// n×n Gram matrix: AᵀA = V·Λ·Vᵀ, S = √Λ, U = A·V·Σ⁻¹.
//
// This costs one pass over a plus an n×n eigendecomposition, which is
// dramatically cheaper than a direct SVD when m ≫ n (the attack's group
// matrices are 64620×100). The price is squared conditioning: singular
// values below about √ε‖A‖ lose accuracy. Leverage scores only need the
// dominant subspace, so this trade is appropriate there.
func ThinSVDGram(a *Matrix) (*SVDFactors, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("linalg: ThinSVDGram requires rows >= cols, got %dx%d", m, n)
	}
	g := a.Gram()
	eig, err := SymEigen(g)
	if err != nil {
		return nil, err
	}
	s := make([]float64, n)
	for i, lam := range eig.Values {
		if lam > 0 {
			s[i] = math.Sqrt(lam)
		}
	}
	// U = A·V·Σ⁻¹ for the nonzero singular values; zero columns otherwise.
	av := a.Mul(eig.Vectors)
	u := NewMatrix(m, n)
	for k := 0; k < n; k++ {
		if s[k] <= 1e-12*s[0] {
			continue
		}
		inv := 1 / s[k]
		for i := 0; i < m; i++ {
			u.Set(i, k, av.At(i, k)*inv)
		}
	}
	return &SVDFactors{U: u, S: s, V: eig.Vectors}, nil
}

// Rank returns the numerical rank implied by the singular values: the
// number of values above rcond times the largest.
func (f *SVDFactors) Rank(rcond float64) int {
	if len(f.S) == 0 || f.S[0] == 0 {
		return 0
	}
	thresh := rcond * f.S[0]
	r := 0
	for _, s := range f.S {
		if s > thresh {
			r++
		}
	}
	return r
}
