package linalg

// The cache-oblivious I-GEP entry points: matrix multiplication, LU
// decomposition and Gaussian elimination, each the one path for its
// computation — the facade, gep-server, gesolve and the benchmarks all
// call these. Each runs a generic core engine (RunDisjoint, RunIGEP)
// with a fused update op, so every base case is a closed-form kernel
// and every cell applies its updates in ascending k, each rounded as
// in the op's Func: the output equals the iterative GEP loop G run
// with that bare Func (core.RunGEP for the in-place ops) bit for bit,
// at every base size, grain and worker count (DESIGN.md §10). Base
// sizes must be at least 1.
//
// Each entry takes the engine options after its positional arguments.
// Without options it runs serially (F's order for RunIGEP);
// core.WithParallel(grain) runs the Figure-6 schedule and forks it
// above grain, and core.WithRuntime(rt) confines the forks to rt — the
// per-job isolation internal/serve is built on.

import (
	"gep/internal/core"
	"gep/internal/matrix"
)

// MulFused computes c += a·b through RunDisjoint with the fused
// multiply-accumulate op: the all-D instantiation of I-GEP on disjoint
// matrices, which needs no cache parameters and incurs O(n³/(B√M))
// misses, and whose parallel recursion has span O(n) (Theorem 3.1),
// the best-scaling workload of Figure 12. The two k-halves of every
// quadrant are sequenced, so each cell's additions stay in increasing
// k order (no associativity is assumed, as the paper notes). Sides
// must be equal powers of two.
func MulFused(c, a, b *matrix.Dense[float64], base int, opts ...core.Option[float64]) {
	checkMulDims(c, a, b)
	core.RunDisjoint[float64](c, a, b, b, core.MulAdd[float64]{}, core.Full{}, withBase(base, opts)...)
}

// LUIGEP performs in-place LU decomposition without pivoting through
// the I-GEP recursion (RunIGEP) with the fused LU op over the LU set
// {k < i ∧ k <= j}: the multipliers end strictly below the diagonal
// (unit diagonal of L implicit) and U on and above it. The input must
// be factorizable without pivoting (e.g. diagonally dominant). Any
// side is accepted: a side that is not a power of two runs padded
// with an identity block, which leaves the leading factors unchanged.
func LUIGEP(c *matrix.Dense[float64], base int, opts ...core.Option[float64]) {
	matrix.OnPow2(c, 0, 1, func(m *matrix.Dense[float64]) {
		core.RunIGEP[float64](m, core.LUFactor[float64]{}, core.LU{}, withBase(base, opts)...)
	})
}

// GaussFused performs in-place Gaussian elimination (no multipliers
// stored) through RunIGEP with the fused elimination op over the
// Gaussian set. The side must be a power of two.
func GaussFused(c *matrix.Dense[float64], base int, opts ...core.Option[float64]) {
	core.RunIGEP[float64](c, core.GaussElim[float64]{}, core.Gaussian{}, withBase(base, opts)...)
}

// withBase puts the positional base size ahead of the caller's
// options, in a fresh slice so the caller's backing array is never
// written.
func withBase(base int, opts []core.Option[float64]) []core.Option[float64] {
	return append([]core.Option[float64]{core.WithBaseSize[float64](base)}, opts...)
}
