// Package linalg provides the dense linear-algebra substrate used by the
// de-anonymization attack: a row-major matrix type, factorizations
// (QR, symmetric eigendecomposition, SVD) and the solvers built on them.
//
// The package is self-contained (standard library only). It favours
// clarity and numerical robustness: the matrices that appear in the
// attack are tall and thin (up to ~65k rows but at most a few hundred
// columns), so all factorizations funnel through small n×n symmetric
// problems. The O(rows·cols²) kernels feeding them (Mul, Gram, T) are
// block-parallel over row bands via internal/parallel, with chunk sizes
// chosen so results stay bit-identical to the serial sweep; pin the
// worker count process-wide with parallel.SetDefault.
package linalg

import (
	"fmt"
	"math"

	"brainprint/internal/parallel"
)

// minKernelWork is the amount of per-chunk scalar work below which the
// O(n³)-ish kernels stay serial: smaller matrices lose more to goroutine
// scheduling than they gain from extra cores.
const minKernelWork = 1 << 16

// kernelGrain returns a For-loop grain such that each chunk carries at
// least minKernelWork scalar operations when every loop iteration costs
// perRow of them.
func kernelGrain(perRow int) int {
	if perRow <= 0 {
		return 1 << 30
	}
	g := minKernelWork / perRow
	if g < 1 {
		g = 1
	}
	return g
}

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0×0) matrix. Use NewMatrix or the other
// constructors to create sized matrices. Element accessors panic on
// out-of-range indices, mirroring slice semantics.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewMatrix returns a zero-initialized r×c matrix.
// It panics if r or c is negative.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewMatrixFromRows builds a matrix from a slice of equal-length rows.
// The data is copied. It returns an error if the rows are ragged.
func NewMatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("linalg: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// RawData returns the underlying row-major backing slice. Mutating it
// mutates the matrix. Useful for bulk kernels; use with care.
func (m *Matrix) RawData() []float64 { return m.data }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i as a slice aliasing the matrix storage.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i. It panics if len(v) != Cols().
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("linalg: SetRow length %d != cols %d", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// SetCol copies v into column j. It panics if len(v) != Rows().
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("linalg: SetCol length %d != rows %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix. Row bands of the input
// are scattered concurrently; each band owns a distinct output column
// range, so the result is identical at any worker count.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	parallel.For(m.rows, kernelGrain(m.cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.data[i*m.cols : (i+1)*m.cols]
			for j, v := range row {
				out.data[j*m.rows+i] = v
			}
		}
	})
	return out
}

// Mul returns the matrix product m·b.
// It panics if the inner dimensions disagree.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	// Block-parallel over row bands of the output: every output row is
	// produced by exactly one worker with the serial ikj loop order
	// (contiguous inner loops in both b and out), so the product is
	// bit-identical at any worker count.
	parallel.For(m.rows, kernelGrain(m.cols*b.cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := m.data[i*m.cols : (i+1)*m.cols]
			orow := out.data[i*b.cols : (i+1)*b.cols]
			for k, aik := range arow {
				if aik == 0 {
					continue
				}
				brow := b.data[k*b.cols : (k+1)*b.cols]
				for j, bkj := range brow {
					orow[j] += aik * bkj
				}
			}
		}
	})
	return out
}

// Gram returns mᵀ·m, the n×n Gram matrix of the columns of m, computed
// directly (without materializing the transpose). The result is
// symmetric by construction.
func (m *Matrix) Gram() *Matrix {
	n := m.cols
	out := NewMatrix(n, n)
	// Block-parallel over bands of output rows: each worker owns rows
	// [lo, hi) of the Gram matrix and sweeps every input row once. For a
	// fixed output element (a, b) the accumulation still runs over input
	// rows in ascending order, so the result is bit-identical to the
	// serial sweep regardless of worker count.
	parallel.For(n, kernelGrain(m.rows*(n+1)/2), func(lo, hi int) {
		for i := 0; i < m.rows; i++ {
			row := m.data[i*m.cols : (i+1)*m.cols]
			for a := lo; a < hi; a++ {
				va := row[a]
				if va == 0 {
					continue
				}
				orow := out.data[a*n : (a+1)*n]
				for b := a; b < n; b++ {
					orow[b] += va * row[b]
				}
			}
		}
	})
	// Mirror the upper triangle.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out.data[b*n+a] = out.data[a*n+b]
		}
	}
	return out
}

// Add returns m + b elementwise. It panics on dimension mismatch.
func (m *Matrix) Add(b *Matrix) *Matrix {
	return m.zipWith(b, func(x, y float64) float64 { return x + y })
}

// Sub returns m − b elementwise. It panics on dimension mismatch.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	return m.zipWith(b, func(x, y float64) float64 { return x - y })
}

func (m *Matrix) zipWith(b *Matrix, f func(x, y float64) float64) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("linalg: elementwise dimension mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = f(v, b.data[i])
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	// Scaled accumulation guards against overflow for large entries.
	var scale, ssq float64 = 0, 1
	for _, v := range m.data {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			ssq = 1 + ssq*(scale/av)*(scale/av)
			scale = av
		} else {
			ssq += (av / scale) * (av / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns the largest absolute entry of m (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// RowNormsSquared returns the squared Euclidean norm of every row.
func (m *Matrix) RowNormsSquared() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for _, v := range row {
			s += v * v
		}
		out[i] = s
	}
	return out
}

// SelectRows returns a new matrix consisting of the given rows of m, in
// the given order. Indices may repeat. It panics on out-of-range indices.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	out := NewMatrix(len(idx), m.cols)
	for k, i := range idx {
		if i < 0 || i >= m.rows {
			panic(fmt.Sprintf("linalg: SelectRows index %d out of range %d", i, m.rows))
		}
		copy(out.data[k*m.cols:(k+1)*m.cols], m.data[i*m.cols:(i+1)*m.cols])
	}
	return out
}

// SelectCols returns a new matrix consisting of the given columns of m.
func (m *Matrix) SelectCols(idx []int) *Matrix {
	out := NewMatrix(m.rows, len(idx))
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*len(idx) : (i+1)*len(idx)]
		for k, j := range idx {
			if j < 0 || j >= m.cols {
				panic(fmt.Sprintf("linalg: SelectCols index %d out of range %d", j, m.cols))
			}
			orow[k] = row[j]
		}
	}
	return out
}

// EqualApprox reports whether m and b have the same shape and every
// entry differs by at most tol.
func (m *Matrix) EqualApprox(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.data[i*m.cols+j]-m.data[j*m.cols+i]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are
// summarized by shape.
func (m *Matrix) String() string {
	if m.rows*m.cols > 100 {
		return fmt.Sprintf("Matrix(%dx%d)", m.rows, m.cols)
	}
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("% .4g ", m.data[i*m.cols+j])
		}
		s += "\n"
	}
	return s
}
