package linalg

import (
	"fmt"
	mathbits "math/bits"

	"gep/internal/core"
	"gep/internal/matrix"
)

// GF(2) linear algebra over bit-packed matrices. Two families live
// here:
//
//   - the GEP-path eliminator GaussGF2Fused — the exact boolean
//     analogue of GaussFused: RunIGEP with the core.GF2Elim op over
//     the Gaussian set, word-parallel via the packed kernels of
//     internal/core/bits.go. Like all unpivoted GEP elimination it
//     requires every leading principal minor to be nonsingular (over
//     GF(2): an LU-factorable matrix).
//
//   - the direct solvers SolveGF2 / RankGF2 — packed Gauss-Jordan with
//     partial pivoting (row swaps), which GEP's fixed update set cannot
//     express, so they work on any input. They share the word-parallel
//     row primitives of matrix.Bits.

// GaussGF2Fused performs in-place GF(2) Gaussian elimination (no
// multipliers stored — over GF(2) the multiplier equals the eliminated
// bit) through RunIGEP with the packed word-parallel kernel. The side
// must be a power of two. The options are the engine's: the base case
// defaults to the packed side of 512 (core.WithBaseSize), the
// four-Russians group width to 8 (core.WithTableWidth, 0 disables the
// table kernel), and core.WithParallel forks over a word-aligned c
// (matrix.Bits.Aligned). The result is upper-triangular only when c is
// eliminable without pivoting; for general matrices use SolveGF2 /
// RankGF2.
func GaussGF2Fused(c *matrix.Bits, opts ...core.Option[bool]) {
	core.RunIGEP[bool](c, core.GF2Elim{}, core.Gaussian{}, opts...)
}

// SolveGF2 solves A·x = b over GF(2). a is not modified; b must have
// a.N() entries. When the system is underdetermined the free variables
// are set to false, so the returned x is one solution of possibly
// many; an inconsistent system returns an error wrapping ErrSingular
// (match with errors.Is) that carries the rank. Pivoting is by row
// swap (partial pivoting — over GF(2) any nonzero pivot is exact), so
// unlike the GEP-path eliminators any matrix is accepted.
func SolveGF2(a *matrix.Bits, b []bool) ([]bool, error) {
	n := a.N()
	if len(b) != n {
		panic(fmt.Sprintf("linalg: SolveGF2 got %d-vector for %dx%d system", len(b), n, n))
	}
	// Augmented [A | b], reduced to RREF word-parallel.
	m := matrix.NewBits(n, n+1)
	m.Sub(0, 0, n, n).CopyFrom(a)
	for i, v := range b {
		m.Set(i, n, v)
	}
	pivots := gf2RREF(m, n)
	// Inconsistent exactly when some zero row of A has a 1 in the
	// augmented column.
	for r := len(pivots); r < n; r++ {
		if m.At(r, n) {
			return nil, fmt.Errorf("linalg: GF(2) system inconsistent (rank %d of %d): %w",
				len(pivots), n, ErrSingular)
		}
	}
	x := make([]bool, n)
	for r, c := range pivots {
		x[c] = m.At(r, n)
	}
	return x, nil
}

// RankGF2 returns the rank of a over GF(2); a is not modified.
func RankGF2(a *matrix.Bits) int {
	m := a.Clone()
	return len(gf2RREF(m, m.Cols()))
}

// gf2RREF reduces m in place to reduced row-echelon form over GF(2)
// considering pivots in the first cols columns only (the remaining
// columns — e.g. an augmented right-hand side — are carried along).
// It returns the pivot column of each pivot row, in row order; the
// length of the result is the rank of m's first cols columns.
func gf2RREF(m *matrix.Bits, cols int) []int {
	rows := m.Rows()
	pivots := make([]int, 0, min(rows, cols))
	r := 0
	for c := 0; c < cols && r < rows; c++ {
		p := -1
		for i := r; i < rows; i++ {
			if m.At(i, c) {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		m.SwapRows(r, p)
		// Jordan step: clear column c in every other row with one
		// word-parallel XOR of the pivot row's suffix [c, Cols()).
		src, _, _ := m.RowSpan(r, c, m.Cols())
		for i := 0; i < rows; i++ {
			if i == r || !m.At(i, c) {
				continue
			}
			dst, fm, lm := m.RowSpan(i, c, m.Cols())
			nw := len(dst)
			if nw == 1 {
				dst[0] ^= src[0] & fm
				continue
			}
			dst[0] ^= src[0] & fm
			for w := 1; w < nw-1; w++ {
				dst[w] ^= src[w]
			}
			dst[nw-1] ^= src[nw-1] & lm
		}
		pivots = append(pivots, c)
		r++
	}
	return pivots
}

// MulVecGF2 returns A·x over GF(2): out[i] = ⊕_j A[i,j]∧x[j], the
// verification primitive for SolveGF2. Aligned matrices run
// word-parallel (AND + popcount-parity per word).
func MulVecGF2(a *matrix.Bits, x []bool) []bool {
	rows, cols := a.Rows(), a.Cols()
	if len(x) != cols {
		panic(fmt.Sprintf("linalg: MulVecGF2 got %d-vector for %dx%d matrix", len(x), rows, cols))
	}
	out := make([]bool, rows)
	if cols == 0 {
		return out
	}
	if !a.Aligned() {
		for i := 0; i < rows; i++ {
			acc := false
			for j := 0; j < cols; j++ {
				acc = acc != (a.At(i, j) && x[j])
			}
			out[i] = acc
		}
		return out
	}
	xw := make([]uint64, (cols+63)>>6)
	for j, v := range x {
		if v {
			xw[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	for i := 0; i < rows; i++ {
		row, fm, lm := a.RowSpan(i, 0, cols)
		nw := len(row)
		pop := 0
		if nw == 1 {
			pop = mathbits.OnesCount64(row[0] & fm & xw[0])
		} else {
			pop = mathbits.OnesCount64(row[0]&fm&xw[0]) +
				mathbits.OnesCount64(row[nw-1]&lm&xw[nw-1])
			for w := 1; w < nw-1; w++ {
				pop += mathbits.OnesCount64(row[w] & xw[w])
			}
		}
		out[i] = pop&1 == 1
	}
	return out
}
