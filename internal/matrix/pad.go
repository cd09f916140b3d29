package matrix

import "math/bits"

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Log2 returns log2(n) for a positive power of two n and panics
// otherwise.
func Log2(n int) int {
	if !IsPow2(n) {
		panic("matrix: Log2 of non-power-of-two")
	}
	return bits.TrailingZeros(uint(n))
}

// PadPow2 returns an m×m copy of the square matrix a, where m is the
// smallest power of two >= a.N(). New cells are fill. The GEP recursion
// assumes power-of-two sides (the paper fixes n = 2^q); padding with a
// problem-neutral element (e.g. +Inf off-diagonal for min-plus, 1 on
// the new diagonal for Gaussian elimination) preserves the answer on
// the original block.
func PadPow2[T any](a *Dense[T], fill T) *Dense[T] {
	n := a.N()
	m := NextPow2(n)
	if m == n {
		return a.Clone()
	}
	out := NewSquare[T](m)
	out.Fill(fill)
	out.Sub(0, 0, n, n).CopyFrom(a)
	return out
}

// PadPow2Diag pads like PadPow2 but sets the padded diagonal cells to
// diag instead of fill. Gaussian elimination needs a non-zero pivot on
// padded rows; Floyd-Warshall needs 0 self-distance.
func PadPow2Diag[T any](a *Dense[T], fill, diag T) *Dense[T] {
	n := a.N()
	out := PadPow2(a, fill)
	for i := n; i < out.N(); i++ {
		out.Set(i, i, diag)
	}
	return out
}

// OnPow2 runs f on a square matrix of power-of-two side whose leading
// block is a: a itself when its side already is a power of two (or
// zero), else a PadPow2Diag(a, fill, diag) copy whose leading block is
// copied back into a when f returns. fill and diag must be neutral for
// f's computation (LU: 0 and 1; min-plus: +Inf and 0; closure: false
// and true), so the padding leaves the leading block's answer as if f
// had run on a alone.
func OnPow2[T any](a *Dense[T], fill, diag T, f func(*Dense[T])) {
	n := a.N()
	if n == 0 || IsPow2(n) {
		f(a)
		return
	}
	p := PadPow2Diag(a, fill, diag)
	f(p)
	a.CopyFrom(p.Sub(0, 0, n, n))
}

// Crop returns the top-left n×n corner of a as a fresh matrix.
func Crop[T any](a *Dense[T], n int) *Dense[T] {
	return a.Sub(0, 0, n, n).Clone()
}
