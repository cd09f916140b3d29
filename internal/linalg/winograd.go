package linalg

import "gep/internal/par"

// The Strassen-Winograd recursion, written once: Strassen runs the
// crossover test, the odd-side peel dispatch and the Winograd level
// over any StrassenOps backend — flat slices (MulStrassen),
// matrix.Grid (MulStrassenGeneric, which bounds2 traces) and
// internal/ooc's store tiles (ooc.RunStrassen). Below the crossover
// each backend runs its own classical leaf; the two in-core backends
// share the classical 8-way split, classic.

// StrassenOps is a backend of the Strassen-Winograd schedule: the
// whole-quadrant operations of one storage kind over views V of
// square matrices, s the side. Errors end the run and are returned by
// Strassen; only a store-backed backend returns any.
type StrassenOps[V any] interface {
	// Quad returns the four h×h quadrants of a 2h×2h view.
	Quad(v V, h int) (v11, v12, v21, v22 V)
	// Get hands out an h×h scratch view; Put returns it for reuse.
	Get(h int) V
	Put(h int, v V)
	// Add sets dst = x + y and Sub sets dst = x − y elementwise; dst
	// may alias x or y.
	Add(dst, x, y V, s int) error
	Sub(dst, x, y V, s int) error
	// Leaf sets c = a·b with the classical product, each cell's
	// additions in ascending k.
	Leaf(c, a, b V, s int) error
	// Peel completes c = a·b for an odd side s after the product of
	// the leading (s−1)-side blocks: the k = s−1 term into that block,
	// then the last column and row as ascending-k dot products.
	Peel(c, a, b V, s int) error
}

// Strassen computes c = a·b (overwriting c) on s×s views through ops:
// a side at or below crossover (< 1 selects DefaultCrossover) is one
// leaf, an odd side above it peels, and an even one runs a Winograd
// level. The schedule fixes every output cell's expression tree, so
// backends that keep their leaves and peels in ascending k give the
// same bits.
func Strassen[V any](ops StrassenOps[V], c, a, b V, s, crossover int) error {
	if crossover < 1 {
		crossover = DefaultCrossover
	}
	if s <= crossover {
		return ops.Leaf(c, a, b, s)
	}
	if s&1 == 1 {
		if err := Strassen(ops, c, a, b, s-1, crossover); err != nil {
			return err
		}
		return ops.Peel(c, a, b, s)
	}
	return winograd(ops, c, a, b, s, crossover)
}

// winograd is one Strassen-Winograd level: 7 sub-products + 15
// quadrant additions in the two-temporary ordering of Douglas et al.
// With S1 = A21+A22, S2 = S1−A11, S3 = A11−A21, S4 = A12−S2,
// T1 = B12−B11, T2 = B22−T1, T3 = B22−B12, T4′ = B21−T2 and products
// P1 = A11·B11, P2 = A12·B21, P3 = S4·B22, P4′ = A22·T4′, P5 = S1·T1,
// P6 = S2·T2, P7 = S3·T3, the output quadrants are
//
//	C11 = P1 + P2
//	C12 = ((P6 + P1) + P5) + P3
//	C21 = ((P6 + P1) + P7) + P4′
//	C22 = ((P6 + P1) + P7) + P5
//
// (P4′ absorbs the conventional U3−P4 subtraction into its right
// operand, so every combination step is an addition). The steps below
// realize exactly these expression trees while keeping only the two
// temporaries X and Y live; an accumulation dst += src is
// Add(dst, dst, src).
func winograd[V any](ops StrassenOps[V], c, a, b V, s, crossover int) error {
	strassenNodes.Inc()
	h := s / 2
	a11, a12, a21, a22 := ops.Quad(a, h)
	b11, b12, b21, b22 := ops.Quad(b, h)
	c11, c12, c21, c22 := ops.Quad(c, h)
	x, y := ops.Get(h), ops.Get(h)
	add := func(d, p, q V) func() error { return func() error { return ops.Add(d, p, q, h) } }
	sub := func(d, p, q V) func() error { return func() error { return ops.Sub(d, p, q, h) } }
	mul := func(d, p, q V) func() error {
		return func() error { return Strassen(ops, d, p, q, h, crossover) }
	}
	for _, step := range []func() error{
		sub(x, a11, a21),   // X = S3
		sub(y, b22, b12),   // Y = T3
		mul(c21, x, y),     // C21 = P7
		add(x, a21, a22),   // X = S1
		sub(y, b12, b11),   // Y = T1
		mul(c22, x, y),     // C22 = P5
		sub(x, x, a11),     // X = S2
		sub(y, b22, y),     // Y = T2
		mul(c12, x, y),     // C12 = P6
		sub(x, a12, x),     // X = S4
		mul(c11, x, b22),   // C11 = P3
		mul(x, a11, b11),   // X = P1 (S4 was consumed by P3)
		add(c12, c12, x),   // C12 = P6 + P1          (U2)
		add(c21, c21, c12), // C21 = U2 + P7          (U3)
		add(c12, c12, c22), // C12 = U2 + P5          (U4)
		add(c22, c22, c21), // C22 = U3 + P5          final
		add(c12, c12, c11), // C12 = U4 + P3          final
		sub(y, b21, y),     // Y = T4′
		mul(c11, a22, y),   // C11 = P4′ (P3 was consumed above)
		add(c21, c21, c11), // C21 = U3 + P4′         final
		mul(y, a12, b21),   // Y = P2 (T4′ was consumed by P4′)
		add(c11, x, y),     // C11 = P1 + P2          final
	} {
		if err := step(); err != nil {
			return err
		}
	}
	ops.Put(h, x)
	ops.Put(h, y)
	return nil
}

// classicOps is what an in-core backend brings to the classical
// recursion: its base block, peel and fork.
type classicOps[V any] interface {
	Quad(v V, h int) (v11, v12, v21, v22 V)
	// block sets c += a·b as one base block when s is at or below the
	// backend's base side, and reports whether it did.
	block(c, a, b V, s int) bool
	// peel is Peel with overwrite set; without it the peeled column
	// and row accumulate into c.
	peel(c, a, b V, s int, overwrite bool)
	// fork runs the tasks of one k-half in cx, forked from it when
	// the backend forks at side s.
	fork(cx par.Ctx, s int, tasks ...func(par.Ctx))
}

// classic computes c += a·b with the classical cache-oblivious
// recursion on any side: base blocks run the backend's kernel, odd
// sides peel, and even sides split 8-way with the two k-halves
// sequenced, so each cell's additions stay in ascending k order. On
// power-of-two sides this is exactly MulFused's update order. Forks
// come from cx.
func classic[V any](o classicOps[V], cx par.Ctx, c, a, b V, s int) {
	if o.block(c, a, b, s) {
		return
	}
	if s&1 == 1 {
		classic(o, cx, c, a, b, s-1)
		o.peel(c, a, b, s, false)
		return
	}
	h := s / 2
	c11, c12, c21, c22 := o.Quad(c, h)
	a11, a12, a21, a22 := o.Quad(a, h)
	b11, b12, b21, b22 := o.Quad(b, h)
	o.fork(cx, s,
		func(cx par.Ctx) { classic(o, cx, c11, a11, b11, h) },
		func(cx par.Ctx) { classic(o, cx, c12, a11, b12, h) },
		func(cx par.Ctx) { classic(o, cx, c21, a21, b11, h) },
		func(cx par.Ctx) { classic(o, cx, c22, a21, b12, h) })
	o.fork(cx, s,
		func(cx par.Ctx) { classic(o, cx, c11, a12, b21, h) },
		func(cx par.Ctx) { classic(o, cx, c12, a12, b22, h) },
		func(cx par.Ctx) { classic(o, cx, c21, a22, b21, h) },
		func(cx par.Ctx) { classic(o, cx, c22, a22, b22, h) })
}
