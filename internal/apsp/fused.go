package apsp

import (
	"gep/internal/core"
	"gep/internal/matrix"
)

// FWFused is cache-oblivious Floyd-Warshall, the one I-GEP path for
// it: the I-GEP recursion (RunIGEP) with the fused min-plus op, whose
// base cases are closed-form block kernels. base must be at least 1.
// Any side is accepted: a side that is not a power of two runs padded
// with +Inf off the diagonal and 0 on it, which leaves the leading
// distances unchanged. Each cell's updates apply in ascending k, so the output
// equals the iterative loop core.RunGEP with the bare min-plus Func
// bit for bit. Without options it runs F's order serially;
// core.WithParallel runs and forks the Figure-6 schedule (span
// O(n log² n)) and core.WithRuntime confines the forks to one runtime,
// with the same output bits.
func FWFused(d *matrix.Dense[float64], base int, opts ...core.Option[float64]) {
	opts = append([]core.Option[float64]{core.WithBaseSize[float64](base)}, opts...)
	matrix.OnPow2(d, Inf, 0, func(m *matrix.Dense[float64]) {
		core.RunIGEP[float64](m, core.MinPlus[float64]{}, core.Full{}, opts...)
	})
}
