package core

import (
	"fmt"

	"gep/internal/matrix"
)

// RunGEP executes the iterative GEP computation G of Figure 1: for k,
// i, j in lexicographic order, apply
//
//	c[i,j] ← f(c[i,j], c[i,k], c[k,j], c[k,k])   for ⟨i,j,k⟩ ∈ Σ_G.
//
// It runs in O(n³) time and incurs O(n³/B) I/Os on a row-major matrix.
// Any side length n >= 0 is accepted (the power-of-two restriction is
// only needed by the recursive algorithms).
//
// op is the update op: a bare UpdateFunc for the generic per-element
// path, or a fused op (MinPlus, MulAdd, ...) to run the whole matrix
// through its closed-form kernel — same outputs either way. G is
// exactly one base-case block covering the matrix, so RunGEP hands
// that block to the dispatcher every engine uses (fastpath.go); over a
// *matrix.Bits the word kernel takes it, with the four-Russians table
// off (the block overlaps its own k-range, so the table never applies).
func RunGEP[T any](c matrix.Grid[T], op Op[T], set UpdateSet) {
	if n := c.N(); n > 0 {
		d := inPlaceDispatcher(c, op, set, 0)
		d.baseCase(0, 0, 0, n)
	}
}

// checkPow2 validates the side length required by the recursive
// algorithms (the paper assumes n = 2^q; use matrix.PadPow2 first).
func checkPow2(n int) {
	if n > 0 && !matrix.IsPow2(n) {
		panic(fmt.Sprintf("core: recursive GEP needs a power-of-two side, got %d (pad with matrix.PadPow2)", n))
	}
}
