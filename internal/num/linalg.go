// Package num provides the numerical kernels used throughout sramco:
// dense linear algebra, scalar root finding, interpolation, a scrambled
// Sobol' sequence, and summary statistics.
//
// The package is deliberately small and dependency-free. Circuit matrices in
// this project are tiny (tens of unknowns), so a dense LU with partial
// pivoting is both simpler and faster than a sparse solver.
package num

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution at the
// working precision.
var ErrSingular = errors.New("num: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("num: invalid matrix dims %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Zero resets every element to 0 without reallocating.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// LU holds an in-place LU factorization with partial pivoting.
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// NewLU allocates factorization storage for n×n systems. Refactor factors a
// matrix into it and SolveInto solves with the factors, without allocating:
// the Newton loop re-factors its Jacobian every iteration.
func NewLU(n int) *LU {
	if n < 0 {
		panic(fmt.Sprintf("num: invalid LU size %d", n))
	}
	return &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
}

// Refactor computes the LU factorization of m into f's storage, without
// allocating; m is not modified and must be square, of the size f was
// created with. It returns ErrSingular if a pivot underflows the tolerance
// relative to the matrix scale.
func (f *LU) Refactor(m *Matrix) error {
	if m.Rows != m.Cols || m.Rows != f.n {
		return fmt.Errorf("num: Refactor size mismatch: LU n=%d, matrix %d×%d", f.n, m.Rows, m.Cols)
	}
	n := f.n
	copy(f.lu, m.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	scale := 0.0
	for _, v := range f.lu {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		return ErrSingular
	}
	tol := scale * 1e-300
	a := f.lu
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest magnitude in column k at/below row k.
		p := k
		best := math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > best {
				best, p = v, i
			}
		}
		if best <= tol {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := a[k*n+k]
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] / pivot
			a[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= l * a[k*n+j]
			}
		}
	}
	return nil
}

// SolveInto solves A·x = b into dst without allocating. dst and b must both
// have length n and must not alias.
func (f *LU) SolveInto(dst, b []float64) {
	if len(b) != f.n || len(dst) != f.n {
		panic(fmt.Sprintf("num: LU.SolveInto dim mismatch: n=%d len(dst)=%d len(b)=%d", f.n, len(dst), len(b)))
	}
	n := f.n
	x := dst
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	a := f.lu
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += a[i*n+j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += a[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / a[i*n+i]
	}
}

// NormInf returns the infinity norm (max absolute value) of a vector.
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
