package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewMatrixFromRows(t *testing.T) {
	m, err := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("NewMatrixFromRows: %v", err)
	}
	if r, c := m.Dims(); r != 3 || c != 2 {
		t.Fatalf("Dims = %d,%d want 3,2", r, c)
	}
	if got := m.At(2, 1); got != 6 {
		t.Errorf("At(2,1) = %v want 6", got)
	}
}

func TestNewMatrixFromRowsRagged(t *testing.T) {
	if _, err := NewMatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestNewMatrixFromRowsEmpty(t *testing.T) {
	m, err := NewMatrixFromRows(nil)
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if r, c := m.Dims(); r != 0 || c != 0 {
		t.Errorf("Dims = %d,%d want 0,0", r, c)
	}
}

func TestAtSetPanics(t *testing.T) {
	m := NewMatrix(2, 3)
	for _, tc := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			m.At(tc[0], tc[1])
		}()
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d,%d] = %v want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if r, c := mt.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = %d,%d want 3,2", r, c)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Errorf("transpose content wrong: %v", mt)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 7, 5)
	if !m.T().T().EqualApprox(m, 0) {
		t.Error("T(T(m)) != m")
	}
}

func TestMul(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want, _ := NewMatrixFromRows([][]float64{{19, 22}, {43, 50}})
	if !got.EqualApprox(want, 1e-12) {
		t.Errorf("Mul = %v want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 4, 6)
	if !Identity(4).Mul(m).EqualApprox(m, 1e-12) {
		t.Error("I·m != m")
	}
	if !m.Mul(Identity(6)).EqualApprox(m, 1e-12) {
		t.Error("m·I != m")
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 20, 6)
	g := a.Gram()
	want := a.T().Mul(a)
	if !g.EqualApprox(want, 1e-10) {
		t.Error("Gram != AᵀA")
	}
	if !g.IsSymmetric(0) {
		t.Error("Gram not exactly symmetric")
	}
}

func TestAddSubScale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 5, 5)
	b := randomMatrix(rng, 5, 5)
	if !a.Add(b).Sub(b).EqualApprox(a, 1e-12) {
		t.Error("a+b-b != a")
	}
	if !a.Add(a).Sub(a).EqualApprox(a, 1e-12) {
		t.Error("a+a-a != a")
	}
}

func TestRowColAccess(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	row := m.Row(1)
	row[0] = 99 // copy: must not affect m
	if m.At(1, 0) != 4 {
		t.Error("Row returned aliasing slice")
	}
	rv := m.RowView(1)
	rv[0] = 99 // view: must affect m
	if m.At(1, 0) != 99 {
		t.Error("RowView did not alias")
	}
	col := m.Col(2)
	if col[0] != 3 || col[1] != 6 {
		t.Errorf("Col = %v", col)
	}
}

func TestSetRowSetCol(t *testing.T) {
	m := NewMatrix(2, 3)
	m.SetRow(0, []float64{1, 2, 3})
	m.SetCol(2, []float64{9, 8})
	if m.At(0, 2) != 9 || m.At(1, 2) != 8 || m.At(0, 0) != 1 {
		t.Errorf("SetRow/SetCol wrong: %v", m)
	}
}

func TestSelectRows(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	s := m.SelectRows([]int{2, 0, 2})
	if s.Rows() != 3 || s.At(0, 0) != 3 || s.At(1, 0) != 1 || s.At(2, 1) != 3 {
		t.Errorf("SelectRows wrong: %v", s)
	}
}

func TestSelectCols(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	s := m.SelectCols([]int{2, 0})
	if s.Cols() != 2 || s.At(0, 0) != 3 || s.At(1, 1) != 4 {
		t.Errorf("SelectCols wrong: %v", s)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{3, 4}})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %v want 5", got)
	}
	if NewMatrix(0, 0).FrobeniusNorm() != 0 {
		t.Error("empty norm != 0")
	}
}

func TestRowNormsSquared(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{3, 4}, {0, 0}, {1, 0}})
	got := m.RowNormsSquared()
	want := []float64{25, 0, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("RowNormsSquared[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	s, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 1}})
	if !s.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 1}})
	if a.IsSymmetric(1e-9) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if NewMatrix(2, 3).IsSymmetric(1) {
		t.Error("non-square reported symmetric")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random shapes.
func TestQuickMulTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		a := randomMatrix(rng, r, k)
		b := randomMatrix(rng, k, c)
		return a.Mul(b).T().EqualApprox(b.T().Mul(a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Frobenius norm is invariant under transpose.
func TestQuickNormTransposeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 1+rng.Intn(10), 1+rng.Intn(10))
		return math.Abs(a.FrobeniusNorm()-a.T().FrobeniusNorm()) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestQuickMulDistributes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := randomMatrix(rng, r, k)
		b := randomMatrix(rng, k, c)
		d := randomMatrix(rng, k, c)
		left := a.Mul(b.Add(d))
		right := a.Mul(b).Add(a.Mul(d))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small, _ := NewMatrixFromRows([][]float64{{1, 2}})
	if small.String() == "" {
		t.Error("small String empty")
	}
	large := NewMatrix(20, 20)
	if large.String() != "Matrix(20x20)" {
		t.Errorf("large String = %q", large.String())
	}
}
