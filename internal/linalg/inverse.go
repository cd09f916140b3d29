package linalg

import (
	"fmt"

	"gep/internal/matrix"
)

// Higher-level solver operations built on the cache-oblivious LU
// factorization: determinants, multi-right-hand-side solves and
// inversion.

// Determinant returns det(A), computed by cache-oblivious LU without
// pivoting; a is not modified. Matrices that are singular "from the
// top" (a zero pivot) return 0 when the factorization survives, but
// non-dominant inputs may hit the pivot-free limitation (NaN/Inf), as
// with all pivot-free elimination.
func Determinant(a *matrix.Dense[float64]) float64 {
	lu := a.Clone()
	LUIGEP(lu, 64)
	det := 1.0
	for i := 0; i < lu.N(); i++ {
		det *= lu.At(i, i)
	}
	return det
}

// SolveLUMany solves A·X = B for each column of B given packed LU
// factors (as produced by LUIGEP/LUTiled/LUGEPOpt); it returns X.
func SolveLUMany(lu *matrix.Dense[float64], b *matrix.Dense[float64]) *matrix.Dense[float64] {
	n := lu.N()
	if b.Rows() != n {
		panic(fmt.Sprintf("linalg: SolveLUMany got %d-row rhs for %dx%d system", b.Rows(), n, n))
	}
	cols := b.Cols()
	x := b.Clone()
	// Forward substitution on all columns: L·Y = B.
	for i := 0; i < n; i++ {
		li := lu.Row(i)
		xi := x.Row(i)
		for k := 0; k < i; k++ {
			lik := li[k]
			if lik == 0 {
				continue
			}
			xk := x.Row(k)
			for c := 0; c < cols; c++ {
				xi[c] -= lik * xk[c]
			}
		}
	}
	// Backward substitution: U·X = Y.
	for i := n - 1; i >= 0; i-- {
		ui := lu.Row(i)
		xi := x.Row(i)
		for k := i + 1; k < n; k++ {
			uik := ui[k]
			if uik == 0 {
				continue
			}
			xk := x.Row(k)
			for c := 0; c < cols; c++ {
				xi[c] -= uik * xk[c]
			}
		}
		inv := 1 / ui[i]
		for c := 0; c < cols; c++ {
			xi[c] *= inv
		}
	}
	return x
}

// Invert returns A⁻¹ by factoring once and solving against the
// identity; a is not modified. The input must be factorizable without
// pivoting.
func Invert(a *matrix.Dense[float64]) *matrix.Dense[float64] {
	n := a.N()
	lu := a.Clone()
	LUIGEP(lu, 64)
	id := matrix.NewSquare[float64](n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	return SolveLUMany(lu, id)
}
