package linalg

// The cache-oblivious I-GEP entry points: matrix multiplication, LU
// decomposition and Gaussian elimination, each the one path for its
// computation — the facade, gep-server, gesolve and the benchmarks all
// call these. Each runs the generic core engines (RunDisjoint,
// RunIGEP, RunABCD) with a fused update op, so every base case is a
// closed-form kernel and every cell applies its updates in ascending
// k, each rounded as in the op's Func: the output equals the iterative
// GEP loop G run with that bare Func (core.RunGEP for the in-place
// ops) bit for bit, at every base size, grain and worker count
// (DESIGN.md §10). Side lengths must be powers of two, and base sizes
// at least 1.
//
// Every parallel entry point has an ...On sibling taking an optional
// *par.Runtime: nil runs on the process-wide default runtime, a
// non-nil runtime confines all forks to that runtime's worker budget —
// the per-job isolation internal/serve is built on.

import (
	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/par"
)

// MulFused computes c += a·b through RunDisjoint with the fused
// multiply-accumulate op: the all-D instantiation of I-GEP on disjoint
// matrices, which needs no cache parameters and incurs O(n³/(B√M))
// misses. The two k-halves of every quadrant are sequenced, so each
// cell's additions stay in increasing k order (no associativity is
// assumed, as the paper notes).
func MulFused(c, a, b *matrix.Dense[float64], base int) {
	checkMulDims(c, a, b)
	core.RunDisjoint[float64](c, a, b, b, core.MulAdd[float64]{}, core.Full{},
		core.WithBaseSize[float64](base))
}

// MulFusedParallel is MulFused through the multithreaded all-D
// recursion: forks above the grain go to the work-stealing runtime
// (internal/par), base blocks run the same fused micro-kernel. The
// all-D recursion has span O(n) (Theorem 3.1), the best-scaling
// workload of Figure 12. Results are bit-identical to MulFused.
func MulFusedParallel(c, a, b *matrix.Dense[float64], base, grain int) {
	MulFusedParallelOn(nil, c, a, b, base, grain)
}

// MulFusedParallelOn is MulFusedParallel with all forks confined to
// rt (nil = the default runtime).
func MulFusedParallelOn(rt *par.Runtime, c, a, b *matrix.Dense[float64], base, grain int) {
	checkMulDims(c, a, b)
	core.RunDisjoint[float64](c, a, b, b, core.MulAdd[float64]{}, core.Full{},
		core.WithBaseSize[float64](base), core.WithParallel[float64](grain),
		core.WithRuntime[float64](rt))
}

// LUIGEP performs in-place LU decomposition without pivoting through
// RunIGEP with the fused LU op over the LU set {k < i ∧ k <= j}: the
// multipliers end strictly below the diagonal (unit diagonal of L
// implicit) and U on and above it. The input must be factorizable
// without pivoting (e.g. diagonally dominant).
func LUIGEP(c *matrix.Dense[float64], base int) {
	core.RunIGEP[float64](c, core.LUFactor[float64]{}, core.LU{},
		core.WithBaseSize[float64](base))
}

// LUIGEPParallel is LUIGEP through the multithreaded A/B/C/D recursion
// (Figure 6) on the work-stealing runtime. RunABCD refines the same
// partial order as RunIGEP, so results are bit-identical to LUIGEP at
// every worker count.
func LUIGEPParallel(c *matrix.Dense[float64], base, grain int) {
	LUIGEPParallelOn(nil, c, base, grain)
}

// LUIGEPParallelOn is LUIGEPParallel with all forks confined to rt
// (nil = the default runtime).
func LUIGEPParallelOn(rt *par.Runtime, c *matrix.Dense[float64], base, grain int) {
	core.RunABCD[float64](c, core.LUFactor[float64]{}, core.LU{},
		core.WithBaseSize[float64](base), core.WithParallel[float64](grain),
		core.WithRuntime[float64](rt))
}

// GaussFused performs in-place Gaussian elimination (no multipliers
// stored) through RunIGEP with the fused elimination op over the
// Gaussian set.
func GaussFused(c *matrix.Dense[float64], base int) {
	core.RunIGEP[float64](c, core.GaussElim[float64]{}, core.Gaussian{},
		core.WithBaseSize[float64](base))
}

// GaussFusedParallel is GaussFused through the multithreaded A/B/C/D
// recursion on the work-stealing runtime; bit-identical to GaussFused
// at every worker count.
func GaussFusedParallel(c *matrix.Dense[float64], base, grain int) {
	GaussFusedParallelOn(nil, c, base, grain)
}

// GaussFusedParallelOn is GaussFusedParallel with all forks confined
// to rt (nil = the default runtime).
func GaussFusedParallelOn(rt *par.Runtime, c *matrix.Dense[float64], base, grain int) {
	core.RunABCD[float64](c, core.GaussElim[float64]{}, core.Gaussian{},
		core.WithBaseSize[float64](base), core.WithParallel[float64](grain),
		core.WithRuntime[float64](rt))
}
