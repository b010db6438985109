package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotAxpyNorm(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Errorf("Dot = %v want 32", got)
	}
	z := []float64{1, 1, 1}
	Axpy(2, x, z)
	if z[2] != 7 {
		t.Errorf("Axpy wrong: %v", z)
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v want 5", got)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	d, _ := NewMatrixFromRows([][]float64{{3, 0}, {0, 1}})
	eig, err := SymEigen(d)
	if err != nil {
		t.Fatalf("SymEigen: %v", err)
	}
	if math.Abs(eig.Values[0]-3) > 1e-12 || math.Abs(eig.Values[1]-1) > 1e-12 {
		t.Errorf("values = %v want [3 1]", eig.Values)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 12} {
		b := randomMatrix(rng, n, n)
		a := b.Add(b.T()) // symmetric
		eig, err := SymEigen(a)
		if err != nil {
			t.Fatalf("SymEigen n=%d: %v", n, err)
		}
		// V·diag(λ)·Vᵀ == A
		lam := NewMatrix(n, n)
		for i, v := range eig.Values {
			lam.Set(i, i, v)
		}
		rec := eig.Vectors.Mul(lam).Mul(eig.Vectors.T())
		if !rec.EqualApprox(a, 1e-8*(1+a.MaxAbs())) {
			t.Errorf("n=%d: VΛVᵀ != A", n)
		}
		// Orthonormal eigenvectors.
		if !eig.Vectors.T().Mul(eig.Vectors).EqualApprox(Identity(n), 1e-9) {
			t.Errorf("n=%d: VᵀV != I", n)
		}
		// Sorted descending.
		for i := 1; i < n; i++ {
			if eig.Values[i] > eig.Values[i-1]+1e-12 {
				t.Errorf("n=%d: eigenvalues not sorted: %v", n, eig.Values)
			}
		}
	}
}

func TestSymEigenRejectsAsymmetric(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 5}, {0, 1}})
	if _, err := SymEigen(a); err == nil {
		t.Fatal("expected error for asymmetric input")
	}
	if _, err := SymEigen(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range [][2]int{{6, 6}, {10, 4}, {4, 10}, {1, 1}, {7, 2}} {
		a := randomMatrix(rng, dims[0], dims[1])
		f, err := SVD(a)
		if err != nil {
			t.Fatalf("SVD %v: %v", dims, err)
		}
		k := len(f.S)
		rec := reconstruct(f, k)
		if !rec.EqualApprox(a, 1e-8*(1+a.MaxAbs())) {
			t.Errorf("SVD %v: UΣVᵀ != A", dims)
		}
		// Singular values nonnegative and sorted descending.
		for i := range f.S {
			if f.S[i] < 0 {
				t.Errorf("SVD %v: negative singular value %v", dims, f.S[i])
			}
			if i > 0 && f.S[i] > f.S[i-1]+1e-12 {
				t.Errorf("SVD %v: unsorted singular values %v", dims, f.S)
			}
		}
		// U and V have orthonormal columns.
		if !f.U.T().Mul(f.U).EqualApprox(Identity(f.U.Cols()), 1e-8) {
			t.Errorf("SVD %v: UᵀU != I", dims)
		}
		if !f.V.T().Mul(f.V).EqualApprox(Identity(f.V.Cols()), 1e-8) {
			t.Errorf("SVD %v: VᵀV != I", dims)
		}
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) embedded in a rectangular matrix has singular values 3, 2.
	a, _ := NewMatrixFromRows([][]float64{{3, 0}, {0, 2}, {0, 0}})
	f, err := SVD(a)
	if err != nil {
		t.Fatalf("SVD: %v", err)
	}
	if math.Abs(f.S[0]-3) > 1e-10 || math.Abs(f.S[1]-2) > 1e-10 {
		t.Errorf("S = %v want [3 2]", f.S)
	}
}

func TestThinSVDGramMatchesSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomMatrix(rng, 40, 6)
	full, err := SVD(a)
	if err != nil {
		t.Fatalf("SVD: %v", err)
	}
	gram, err := ThinSVDGram(a)
	if err != nil {
		t.Fatalf("ThinSVDGram: %v", err)
	}
	for i := range full.S {
		if math.Abs(full.S[i]-gram.S[i]) > 1e-6*(1+full.S[0]) {
			t.Errorf("singular value %d: jacobi=%v gram=%v", i, full.S[i], gram.S[i])
		}
	}
	// Leverage scores (row norms of U) must agree regardless of the sign/
	// rotation ambiguity of individual singular vectors.
	lf := full.U.RowNormsSquared()
	lg := gram.U.RowNormsSquared()
	for i := range lf {
		if math.Abs(lf[i]-lg[i]) > 1e-6 {
			t.Errorf("leverage %d: jacobi=%v gram=%v", i, lf[i], lg[i])
		}
	}
}

func TestThinSVDGramWideRejected(t *testing.T) {
	if _, err := ThinSVDGram(NewMatrix(2, 5)); err == nil {
		t.Fatal("expected error for wide matrix")
	}
}

func TestSVDRankAndPseudoInverse(t *testing.T) {
	// Rank-1 matrix.
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	f, err := SVD(a)
	if err != nil {
		t.Fatalf("SVD: %v", err)
	}
	if r := f.Rank(1e-10); r != 1 {
		t.Errorf("Rank = %d want 1", r)
	}
	// A·A⁺·A == A (Moore-Penrose identity), A⁺ = V·Σ⁺·Uᵀ from the factors.
	inv := &SVDFactors{U: f.V, S: make([]float64, len(f.S)), V: f.U}
	for k, s := range f.S {
		if s > 1e-12*f.S[0] {
			inv.S[k] = 1 / s
		}
	}
	pinv := reconstruct(inv, len(inv.S))
	if !a.Mul(pinv).Mul(a).EqualApprox(a, 1e-8) {
		t.Error("A·A⁺·A != A")
	}
}

func TestReconstructTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randomMatrix(rng, 8, 5)
	f, _ := SVD(a)
	// Truncating to rank k must be a better approximation as k grows.
	prev := math.Inf(1)
	for k := 1; k <= 5; k++ {
		err := reconstruct(f, k).Sub(a).FrobeniusNorm()
		if err > prev+1e-12 {
			t.Errorf("rank-%d error %v worse than rank-%d %v", k, err, k-1, prev)
		}
		prev = err
	}
}

// reconstruct returns U·diag(S)·Vᵀ truncated to the leading k
// components.
func reconstruct(f *SVDFactors, k int) *Matrix {
	lead := make([]int, k)
	for c := range lead {
		lead[c] = c
	}
	us := f.U.SelectCols(lead)
	for i := 0; i < us.Rows(); i++ {
		for c := 0; c < k; c++ {
			us.Set(i, c, us.At(i, c)*f.S[c])
		}
	}
	return us.Mul(f.V.SelectCols(lead).T())
}

// Property: SVD singular values match the square roots of the
// eigenvalues of AᵀA.
func TestQuickSVDEigenConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(8)
		n := 1 + rng.Intn(m)
		a := randomMatrix(rng, m, n)
		sf, err := SVD(a)
		if err != nil {
			return false
		}
		eig, err := SymEigen(a.Gram())
		if err != nil {
			return false
		}
		for i := range sf.S {
			lam := eig.Values[i]
			if lam < 0 {
				lam = 0
			}
			if math.Abs(sf.S[i]-math.Sqrt(lam)) > 1e-7*(1+sf.S[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the Frobenius norm equals the l2 norm of the singular values.
func TestQuickSVDNormIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(9)
		n := 1 + rng.Intn(9)
		a := randomMatrix(rng, m, n)
		sf, err := SVD(a)
		if err != nil {
			return false
		}
		return math.Abs(a.FrobeniusNorm()-Norm2(sf.S)) < 1e-8*(1+a.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDot4BitIdenticalToDot pins the gather kernel's exactness
// contract: each of Dot4's four results must equal the corresponding
// lone Dot bit for bit (==, not a tolerance), across dimensions that
// exercise awkward accumulation lengths. The IVF posting-list scan
// leans on this to batch scattered candidates without perturbing the
// score of any returned record.
func TestDot4BitIdenticalToDot(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, dim := range []int{1, 2, 3, 7, 100, 513} {
		vecs := make([][]float64, 5)
		for i := range vecs {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			vecs[i] = v
		}
		a, b, c, d, y := vecs[0], vecs[1], vecs[2], vecs[3], vecs[4]
		s0, s1, s2, s3 := Dot4(a, b, c, d, y)
		for i, got := range []float64{s0, s1, s2, s3} {
			if want := Dot(vecs[i], y); got != want {
				t.Errorf("dim %d lane %d: Dot4 %v != Dot %v", dim, i, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Dot4 with mismatched lengths did not panic")
		}
	}()
	Dot4(make([]float64, 3), make([]float64, 3), make([]float64, 3), make([]float64, 2), make([]float64, 3))
}

// TestDot8BitIdenticalToDot extends the gather-kernel exactness pin to
// the eight-wide variant the IVF scan actually uses.
func TestDot8BitIdenticalToDot(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, dim := range []int{1, 5, 100, 513} {
		vecs := make([][]float64, 9)
		for i := range vecs {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			vecs[i] = v
		}
		y := vecs[8]
		s0, s1, s2, s3, s4, s5, s6, s7 := Dot8(
			vecs[0], vecs[1], vecs[2], vecs[3], vecs[4], vecs[5], vecs[6], vecs[7], y)
		for i, got := range []float64{s0, s1, s2, s3, s4, s5, s6, s7} {
			if want := Dot(vecs[i], y); got != want {
				t.Errorf("dim %d lane %d: Dot8 %v != Dot %v", dim, i, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Dot8 with mismatched lengths did not panic")
		}
	}()
	v3 := make([]float64, 3)
	Dot8(v3, v3, v3, v3, v3, v3, make([]float64, 4), v3, v3)
}
