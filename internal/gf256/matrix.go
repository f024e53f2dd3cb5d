package gf256

import (
	"errors"
	"fmt"
)

// Matrix is a dense matrix over GF(2^8), stored row-major.
type Matrix struct {
	Rows, Cols int
	Data       []byte // len Rows*Cols
}

// NewMatrix allocates a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf256: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r. The slice aliases the matrix storage.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows x cols matrix with element (r, c) equal
// to r^c (with 0^0 == 1), the classical starting point for
// Reed-Solomon generator matrices.
func Vandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, Pow(byte(r), c))
		}
	}
	return m
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("gf256: cannot multiply %dx%d by %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			row := Table(a)
			orow := other.Row(k)
			dst := out.Row(r)
			for c, b := range orow {
				dst[c] ^= row[b]
			}
		}
	}
	return out
}

// ErrSingular reports that a matrix could not be inverted.
var ErrSingular = errors.New("gf256: matrix is singular")

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination with partial pivoting (any nonzero pivot works in a
// field, but row swaps are still needed to find one).
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		panic("gf256: cannot invert non-square matrix")
	}
	n := m.Rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot row at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale the pivot row so the pivot becomes 1.
		if p := work.At(col, col); p != 1 {
			scale := Inv(p)
			scaleRow(work.Row(col), scale)
			scaleRow(inv.Row(col), scale)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			addScaledRow(work.Row(r), work.Row(col), f)
			addScaledRow(inv.Row(r), inv.Row(col), f)
		}
	}
	return inv, nil
}

// InvertInPlace is Invert on caller-owned storage, for callers that
// invert small systems in a hot loop (Reed-Solomon repair solves one
// e x e system per damaged stripe): it allocates nothing. a and inv
// are n x n row-major (len >= n*n each, not overlapping). On success
// inv holds the inverse and a has been reduced to the identity. On
// ErrSingular both are left partially reduced and hold nothing
// useful: a caller that needs its matrix afterwards inverts a copy.
//
// The elimination is deliberately not shared with Invert: Invert is
// what the Reed-Solomon reference decoder runs, and an oracle that
// called the code it checks would agree with its bugs.
func InvertInPlace(a, inv []byte, n int) error {
	if n <= 0 || len(a) < n*n || len(inv) < n*n {
		panic(fmt.Sprintf("gf256: InvertInPlace needs two %dx%d buffers, got %d and %d bytes", n, n, len(a), len(inv)))
	}
	a, inv = a[:n*n], inv[:n*n]
	clear(inv)
	for i := 0; i < n; i++ {
		inv[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := col
		for pivot < n && a[pivot*n+col] == 0 {
			pivot++
		}
		if pivot == n {
			return ErrSingular
		}
		arow, irow := a[col*n:(col+1)*n], inv[col*n:(col+1)*n]
		if pivot != col {
			swapSlices(arow, a[pivot*n:(pivot+1)*n])
			swapSlices(irow, inv[pivot*n:(pivot+1)*n])
		}
		if p := arow[col]; p != 1 {
			scale := Inv(p)
			scaleRow(arow, scale)
			scaleRow(irow, scale)
		}
		for r := 0; r < n; r++ {
			if f := a[r*n+col]; r != col && f != 0 {
				addScaledRow(a[r*n:(r+1)*n], arow, f)
				addScaledRow(inv[r*n:(r+1)*n], irow, f)
			}
		}
	}
	return nil
}

// SubMatrix returns the matrix restricted to the given rows (all
// columns), in the order provided.
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

func swapRows(m *Matrix, a, b int) { swapSlices(m.Row(a), m.Row(b)) }

func swapSlices(ra, rb []byte) {
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(row []byte, c byte) {
	t := Table(c)
	for i, v := range row {
		row[i] = t[v]
	}
}

// addScaledRow computes dst[i] ^= c * src[i].
func addScaledRow(dst, src []byte, c byte) {
	t := Table(c)
	for i, v := range src {
		dst[i] ^= t[v]
	}
}

// RSGeneratorMatrix builds the (k+m) x k systematic generator matrix
// for a Reed-Solomon code with k data devices and m code devices: the
// top k rows are the identity (data passes through unchanged) and the
// bottom m rows produce the parity devices.
//
// It is derived from a (k+m) x k Vandermonde matrix by multiplying with
// the inverse of its top square, which preserves the MDS property (any
// k rows remain invertible) while making the code systematic.
func RSGeneratorMatrix(k, m int) (*Matrix, error) {
	if k <= 0 || m <= 0 {
		return nil, fmt.Errorf("gf256: invalid RS shape k=%d m=%d", k, m)
	}
	if k+m > Order {
		return nil, fmt.Errorf("gf256: k+m = %d exceeds field order %d", k+m, Order)
	}
	v := Vandermonde(k+m, k)
	top := v.SubMatrix(intRange(k))
	topInv, err := top.Invert()
	if err != nil {
		// Cannot happen: the top square of a Vandermonde matrix with
		// distinct evaluation points is nonsingular.
		return nil, err
	}
	return v.Mul(topInv), nil
}

func intRange(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}
