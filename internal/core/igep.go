package core

import (
	"gep/internal/matrix"
	"gep/internal/par"
)

// RunIGEP executes the cache-oblivious I-GEP recursion F of Figure 2 on
// the square matrix c, in place. With the default options it performs
// exactly the pure recursion; WithBaseSize switches to an iterative
// kernel at small subproblems (§4.2 of the paper). WithParallel runs
// the multithreaded A/B/C/D schedule of Figure 6 (abcd.go) instead of
// F's order: both refine the same partial order with the same
// read-value semantics, so the two schedules always produce identical
// results.
//
// I-GEP performs the same set of updates as RunGEP (Theorem 2.1) but
// may supply different intermediate values to f (Theorem 2.2); it is
// provably equivalent to RunGEP for the standard instances —
// Floyd-Warshall (Full set, min-plus f), Gaussian elimination
// (Gaussian set), LU decomposition (LU set), and matrix multiplication
// — but not for arbitrary (f, Σ_G); use RunCGEP for full generality.
//
// The side length must be a power of two (pad with matrix.PadPow2).
// I/O complexity: O(n³/(B√M)) under the tall-cache assumption.
//
// op is the update op: a bare UpdateFunc runs the flat or generic
// per-element kernels; a fused op (MinPlus, MulAdd, GaussElim,
// LUFactor, Closure) runs its closed-form base-case kernel, with
// bit-identical outputs.
func RunIGEP[T any](c matrix.Grid[T], op Op[T], set UpdateSet, opts ...Option[T]) {
	n := c.N()
	checkPow2(n)
	if n == 0 {
		return
	}
	cfg := buildConfig(c, opts)
	e := &engine[T]{d: cfg.bindFast(c, set, op), cfg: &cfg}
	e.run(n)
}

// engine is one run of the in-core recursion over a base-case
// dispatcher: I-GEP's fused, flat and Grid tiers, C-GEP's saved-state
// kernel (cgep.go), or IGEPBlocks' recorder. It has two schedules of
// the same quadrant calls: igep (F's order) and abcd (Figure 6).
type engine[T any] struct {
	d   *dispatcher[T]
	cfg *config[T]
}

// run executes the whole n×n computation: the Figure 6 schedule when
// WithParallel is set, forking from a root of the run's runtime, and
// F's order otherwise.
func (e *engine[T]) run(n int) {
	if e.cfg.parallel {
		e.abcd(par.Or(e.cfg.rt).Root(), 0, 0, 0, n)
	} else {
		e.igep(0, 0, 0, n)
	}
}

// leaf ends the recursion at the quadrant when it can: one whose update
// box misses Σ_G is skipped (line 1 of Figure 2), and one at or
// below the base size runs as a base case. It reports whether it did
// either.
func (e *engine[T]) leaf(i0, j0, k0, s int) bool {
	if e.cfg.prune && !e.d.set.Intersects(i0, i0+s-1, j0, j0+s-1, k0, k0+s-1) {
		return true
	}
	if s <= e.cfg.baseSize {
		e.d.baseCase(i0, j0, k0, s)
		return true
	}
	return false
}

// par executes tasks as one fork-join group, the `parallel:` step of
// Figure 6: when parallel execution is enabled and the subproblem side
// s is above the grain, it is cx.Do on the run's work-stealing runtime
// (internal/par; the default one unless WithRuntime set another) —
// all but the last task forked, the last run in cx; otherwise all run
// serially in order in cx. A fork goes to the caller's worker deque,
// and forks at or past the runtime's depth cutoff run inline, so a run
// never oversubscribes the Go scheduler.
func (e *engine[T]) par(cx par.Ctx, s int, tasks ...func(par.Ctx)) {
	if !e.cfg.parallel || s <= e.cfg.grain {
		for _, t := range tasks {
			t(cx)
		}
		return
	}
	forkCount.Add(int64(len(tasks) - 1))
	cx.Do(tasks...)
}

// igep is F(X, k1, k2) with X = c[i0 : i0+s, j0 : j0+s] and the k-range
// [k0, k0+s). Input conditions 2.1 hold by construction: the i-, j- and
// k-ranges have equal power-of-two length and each either equals or is
// disjoint from the k-range.
func (e *engine[T]) igep(i0, j0, k0, s int) {
	if e.leaf(i0, j0, k0, s) {
		return
	}
	h := s / 2
	// Forward pass: k-range [k0, k0+h) over the four quadrants.
	e.igep(i0, j0, k0, h)     // X11
	e.igep(i0, j0+h, k0, h)   // X12
	e.igep(i0+h, j0, k0, h)   // X21
	e.igep(i0+h, j0+h, k0, h) // X22
	// Backward pass: k-range [k0+h, k0+s) in reverse quadrant order.
	e.igep(i0+h, j0+h, k0+h, h) // X22
	e.igep(i0+h, j0, k0+h, h)   // X21
	e.igep(i0, j0+h, k0+h, h)   // X12
	e.igep(i0, j0, k0+h, h)     // X11
}

// gridKernel is the Grid loop: the block in G order through the Grid
// interface, membership per element via set.Contains and every
// operand re-read per update, so no overlap of X, U, V and W needs any
// analysis. For s == 1 it is exactly line 2 of Figure 2; for s > 1 it
// is the paper's "GEP-like iterative kernel" optimization, equivalent
// to the pure recursion on every instance for which I-GEP itself is
// correct.
func gridKernel[T any](x, u, v, w matrix.Grid[T], f UpdateFunc[T], set UpdateSet, i0, j0, k0, s int) {
	kernelGenericCount.Inc()
	for k := k0; k < k0+s; k++ {
		for i := i0; i < i0+s; i++ {
			for j := j0; j < j0+s; j++ {
				if set.Contains(i, j, k) {
					x.Set(i, j, f(i, j, k, x.At(i, j), u.At(i, k), v.At(k, j), w.At(k, k)))
				}
			}
		}
	}
}
