package core

import "gep/internal/matrix"

// Multithreaded I-GEP (Figures 4-6 of the paper). The recursion is
// specialized by the amount of overlap between the written submatrix X
// and the read submatrices U = c[I,K], V = c[K,J], W = c[K,K]:
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

// RunABCD executes the multithreaded I-GEP recursion on c. It performs
// exactly the same updates with the same read-value semantics as
// RunIGEP (both refine the same partial order), so the two always
// produce identical results; RunABCD additionally exposes the
// parallelism of Figure 6, enabled with WithParallel.
func RunABCD[T any](c matrix.Grid[T], op Op[T], set UpdateSet, opts ...Option[T]) {
	n := c.N()
	checkPow2(n)
	if n == 0 {
		return
	}
	cfg := forkConfig(c, opts)
	cfg.bindFast(c, set, op)
	st := &abcdState[T]{c: c, f: op.Func(), set: set, cfg: &cfg}
	st.run(0, 0, 0, n)
}

type abcdState[T any] struct {
	c   matrix.Grid[T]
	f   UpdateFunc[T]
	set UpdateSet
	cfg *config[T]
}

// par runs the given tasks, concurrently when parallel execution is on
// and the subproblem side s is above the grain. The last task always
// runs on the calling goroutine.
func (st *abcdState[T]) par(s int, tasks ...func()) { parGroup(st.cfg, s, tasks...) }

func (st *abcdState[T]) run(xi, xj, k0, s int) {
	if st.cfg.prune && !st.set.Intersects(xi, xi+s-1, xj, xj+s-1, k0, k0+s-1) {
		return
	}
	if s <= st.cfg.baseSize {
		baseCase(st.c, st.f, st.set, st.cfg, xi, xj, k0, s)
		return
	}
	h := s / 2
	iK, jK := xi == k0, xj == k0
	switch {
	case iK && jK: // A (Figure 6, function A)
		st.run(xi, xj, k0, h) // A(X11)
		st.par(s,
			func() { st.run(xi, xj+h, k0, h) }, // B1(X12)
			func() { st.run(xi+h, xj, k0, h) }, // C1(X21)
		)
		st.run(xi+h, xj+h, k0, h)   // D1(X22)
		st.run(xi+h, xj+h, k0+h, h) // A(X22)
		st.par(s,
			func() { st.run(xi+h, xj, k0+h, h) }, // B2(X21)
			func() { st.run(xi, xj+h, k0+h, h) }, // C2(X12)
		)
		st.run(xi, xj, k0+h, h) // D4(X11)

	case iK: // B (X rows coincide with the pivot rows)
		st.par(s,
			func() { st.run(xi, xj, k0, h) },   // B(X11)
			func() { st.run(xi, xj+h, k0, h) }, // B(X12)
		)
		st.par(s,
			func() { st.run(xi+h, xj, k0, h) },   // D(X21)
			func() { st.run(xi+h, xj+h, k0, h) }, // D(X22)
		)
		st.par(s,
			func() { st.run(xi+h, xj, k0+h, h) },   // B(X21)
			func() { st.run(xi+h, xj+h, k0+h, h) }, // B(X22)
		)
		st.par(s,
			func() { st.run(xi, xj, k0+h, h) },   // D(X11)
			func() { st.run(xi, xj+h, k0+h, h) }, // D(X12)
		)

	case jK: // C (X columns coincide with the pivot columns)
		st.par(s,
			func() { st.run(xi, xj, k0, h) },   // C(X11)
			func() { st.run(xi+h, xj, k0, h) }, // C(X21)
		)
		st.par(s,
			func() { st.run(xi, xj+h, k0, h) },   // D(X12)
			func() { st.run(xi+h, xj+h, k0, h) }, // D(X22)
		)
		st.par(s,
			func() { st.run(xi, xj+h, k0+h, h) },   // C(X12)
			func() { st.run(xi+h, xj+h, k0+h, h) }, // C(X22)
		)
		st.par(s,
			func() { st.run(xi, xj, k0+h, h) },   // D(X11)
			func() { st.run(xi+h, xj, k0+h, h) }, // D(X21)
		)

	default: // D (X disjoint from pivot rows and columns)
		st.par(s,
			func() { st.run(xi, xj, k0, h) },
			func() { st.run(xi, xj+h, k0, h) },
			func() { st.run(xi+h, xj, k0, h) },
			func() { st.run(xi+h, xj+h, k0, h) },
		)
		st.par(s,
			func() { st.run(xi, xj, k0+h, h) },
			func() { st.run(xi, xj+h, k0+h, h) },
			func() { st.run(xi+h, xj, k0+h, h) },
			func() { st.run(xi+h, xj+h, k0+h, h) },
		)
	}
}

// RunDisjoint executes the all-D recursion over four pairwise-disjoint
// grids: X is written, U is read at (i,k), V at (k,j) and W at (k,k).
// This is how matrix multiplication runs in the framework
// (C += A·B with X=C, U=A, V=B; f ignores w) with span O(n): with
// disjoint matrices every quadrant of each half-pass is independent.
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
	cfg := forkConfig(x, opts)
	cfg.ranger, _ = set.(Ranger)
	st := &disjointState[T]{x: x, u: u, v: v, w: w, f: op.Func(), set: set, cfg: &cfg}
	st.fx, st.fu, st.fv, st.fw = flatOf(x), flatOf(u), flatOf(v), flatOf(w)
	st.flat = st.fx.ok && st.fu.ok && st.fv.ok && st.fw.ok
	if st.flat {
		st.dop, _ = op.(DisjointKerneler[T])
	}
	cfg.resolveBaseSize(st.flat)
	st.run(0, 0, 0, n)
}

type disjointState[T any] struct {
	x, u, v, w matrix.Grid[T]
	f          UpdateFunc[T]
	set        UpdateSet
	cfg        *config[T]

	// Flat fast path, taken when all four grids are *matrix.Dense;
	// dop is the op's fused disjoint kernel when it provides one.
	fx, fu, fv, fw flatRect[T]
	flat           bool
	dop            DisjointKerneler[T]
}

func (st *disjointState[T]) par(s int, tasks ...func()) { parGroup(st.cfg, s, tasks...) }

func (st *disjointState[T]) run(xi, xj, k0, s int) {
	if st.cfg.prune && !st.set.Intersects(xi, xi+s-1, xj, xj+s-1, k0, k0+s-1) {
		return
	}
	if s <= st.cfg.baseSize {
		if st.flat {
			if st.dop != nil && st.dop.DisjointKernel(
				st.fx.data, st.fx.stride, st.fu.data, st.fu.stride,
				st.fv.data, st.fv.stride, st.fw.data, st.fw.stride,
				st.cfg.ranger, xi, xj, k0, s) {
				kernelFusedCount.Inc()
				return
			}
			st.kernelFlat(xi, xj, k0, s)
			return
		}
		kernelGenericCount.Inc()
		for k := k0; k < k0+s; k++ {
			for i := xi; i < xi+s; i++ {
				for j := xj; j < xj+s; j++ {
					if st.set.Contains(i, j, k) {
						st.x.Set(i, j, st.f(i, j, k,
							st.x.At(i, j), st.u.At(i, k), st.v.At(k, j), st.w.At(k, k)))
					}
				}
			}
		}
		return
	}
	h := s / 2
	st.par(s,
		func() { st.run(xi, xj, k0, h) },
		func() { st.run(xi, xj+h, k0, h) },
		func() { st.run(xi+h, xj, k0, h) },
		func() { st.run(xi+h, xj+h, k0, h) },
	)
	st.par(s,
		func() { st.run(xi, xj, k0+h, h) },
		func() { st.run(xi, xj+h, k0+h, h) },
		func() { st.run(xi+h, xj, k0+h, h) },
		func() { st.run(xi+h, xj+h, k0+h, h) },
	)
}
