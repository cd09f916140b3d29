package core

import (
	"gep/internal/matrix"
	"gep/internal/par"
)

// Multithreaded I-GEP (Figures 4-6 of the paper): the schedule
// RunIGEP and RunCGEP run under WithParallel, and RunDisjoint always.
// The recursion is specialized by the amount of overlap between the
// written submatrix X and the read submatrices U = c[I,K], V = c[K,J],
// W = c[K,K]:
//
//	A  — I = J = K          (X ≡ U ≡ V ≡ W, the initial call)
//	B  — I = K, J ∩ K = ∅   (X ≡ V, U ≡ W)
//	C  — J = K, I ∩ K = ∅   (X ≡ U, V ≡ W)
//	D  — I ∩ K = J ∩ K = ∅  (all four disjoint)
//
// The l subscripts of the paper (B₁/B₂, C₁/C₂, D₁..D₄) encode only the
// relative position of X to the pivot block (Figure 13); execution is
// identical within a kind, so this implementation derives the kind
// from the coordinates: a call (xi, xj, k0, s) has I = [xi, xi+s),
// J = [xj, xj+s), K = [k0, k0+s), and I = K iff xi == k0 (input
// conditions 2.1 exclude partial overlap).
//
// The less the overlap, the more recursive calls may proceed in
// parallel: A's sequence is A; (B ∥ C); D; A; (B ∥ C); D, B and C run
// their same-kind pair and D-pair in parallel, and D runs all four
// quadrants of each half in parallel, giving T∞ = O(n log² n)
// (Theorem 3.1), and O(n) for the all-D disjoint recursion of matrix
// multiplication.

// abcd is the A/B/C/D recursion of Figure 6, forking from cx. In
// place, the overlap kind follows from the coordinates; over the
// disjoint operands of RunDisjoint every call is a D call.
func (e *engine[T]) abcd(cx par.Ctx, xi, xj, k0, s int) {
	if e.leaf(xi, xj, k0, s) {
		return
	}
	h := s / 2
	iK, jK := e.d.inPlace && xi == k0, e.d.inPlace && xj == k0
	switch {
	case iK && jK: // A (Figure 6, function A)
		e.abcd(cx, xi, xj, k0, h) // A(X11)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi, xj+h, k0, h) }, // B1(X12)
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj, k0, h) }, // C1(X21)
		)
		e.abcd(cx, xi+h, xj+h, k0, h)   // D1(X22)
		e.abcd(cx, xi+h, xj+h, k0+h, h) // A(X22)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj, k0+h, h) }, // B2(X21)
			func(cx par.Ctx) { e.abcd(cx, xi, xj+h, k0+h, h) }, // C2(X12)
		)
		e.abcd(cx, xi, xj, k0+h, h) // D4(X11)

	case iK: // B (X rows coincide with the pivot rows)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi, xj, k0, h) },   // B(X11)
			func(cx par.Ctx) { e.abcd(cx, xi, xj+h, k0, h) }, // B(X12)
		)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj, k0, h) },   // D(X21)
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj+h, k0, h) }, // D(X22)
		)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj, k0+h, h) },   // B(X21)
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj+h, k0+h, h) }, // B(X22)
		)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi, xj, k0+h, h) },   // D(X11)
			func(cx par.Ctx) { e.abcd(cx, xi, xj+h, k0+h, h) }, // D(X12)
		)

	case jK: // C (X columns coincide with the pivot columns)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi, xj, k0, h) },   // C(X11)
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj, k0, h) }, // C(X21)
		)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi, xj+h, k0, h) },   // D(X12)
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj+h, k0, h) }, // D(X22)
		)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi, xj+h, k0+h, h) },   // C(X12)
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj+h, k0+h, h) }, // C(X22)
		)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi, xj, k0+h, h) },   // D(X11)
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj, k0+h, h) }, // D(X21)
		)

	default: // D (X disjoint from pivot rows and columns)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi, xj, k0, h) },
			func(cx par.Ctx) { e.abcd(cx, xi, xj+h, k0, h) },
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj, k0, h) },
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj+h, k0, h) },
		)
		e.par(cx, s,
			func(cx par.Ctx) { e.abcd(cx, xi, xj, k0+h, h) },
			func(cx par.Ctx) { e.abcd(cx, xi, xj+h, k0+h, h) },
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj, k0+h, h) },
			func(cx par.Ctx) { e.abcd(cx, xi+h, xj+h, k0+h, h) },
		)
	}
}

// RunDisjoint executes the all-D recursion over four pairwise-disjoint
// grids: X is written, U is read at (i,k), V at (k,j) and W at (k,k).
// This is how matrix multiplication runs in the framework
// (C += A·B with X=C, U=A, V=B; f ignores w) with span O(n): with
// disjoint matrices every quadrant of each half-pass is independent,
// so the run is abcd's D case at every level, forked with WithParallel
// and in the same order without it.
//
// Note that, exactly as the paper observes for matrix multiplication,
// RunDisjoint does not assume f is associative in its accumulation:
// the two k-halves are sequenced, so each cell's updates still apply in
// increasing k order.
func RunDisjoint[T any](x, u, v, w matrix.Grid[T], op Op[T], set UpdateSet, opts ...Option[T]) {
	n := x.N()
	checkPow2(n)
	if u.N() != n || v.N() != n || w.N() != n {
		panic("core: RunDisjoint requires equal-size grids")
	}
	if n == 0 {
		return
	}
	cfg := buildConfig(x, opts)
	d := newDispatcher(op, set, operandOf(x), operandOf(u), operandOf(v), operandOf(w))
	cfg.resolveBaseSize(d.flat, false)
	e := &engine[T]{d: &d, cfg: &cfg}
	e.abcd(par.Or(cfg.rt).Root(), 0, 0, 0, n)
}
