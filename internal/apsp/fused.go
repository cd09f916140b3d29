package apsp

import (
	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/par"
)

// FWFused is cache-oblivious Floyd-Warshall, the one I-GEP path for
// it: the RunIGEP engine with the fused min-plus op, whose base cases
// are closed-form block kernels. The side must be a power of two (pad
// with matrix.PadPow2Diag(d, Inf, 0) otherwise) and base at least 1.
// Each cell's updates apply in ascending k, so the output equals the
// iterative loop core.RunGEP with the bare min-plus Func bit for bit.
func FWFused(d *matrix.Dense[float64], base int) {
	core.RunIGEP[float64](d, core.MinPlus[float64]{}, core.Full{},
		core.WithBaseSize[float64](base))
}

// FWFusedParallel is FWFused through the multithreaded A/B/C/D
// recursion (Figure 6) on the work-stealing runtime (internal/par).
// RunABCD refines the same partial order as RunIGEP, so the output is
// bit-identical to FWFused at every worker count.
func FWFusedParallel(d *matrix.Dense[float64], base, grain int) {
	FWFusedParallelOn(nil, d, base, grain)
}

// FWFusedParallelOn is FWFusedParallel with all forks confined to rt
// (nil = the default runtime).
func FWFusedParallelOn(rt *par.Runtime, d *matrix.Dense[float64], base, grain int) {
	core.RunABCD[float64](d, core.MinPlus[float64]{}, core.Full{},
		core.WithBaseSize[float64](base), core.WithParallel[float64](grain),
		core.WithRuntime[float64](rt))
}
