package bench

import (
	"fmt"
	"io"

	"gep/internal/apsp"
	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/matrix"
)

func init() {
	Register(Experiment{
		Name:  "incore",
		Title: "In-core engine kernels: Floyd-Warshall and matrix multiply vs the iterative and tiled comparators",
		Run:   runIncore,
	})
}

// mulUpdate is the fused multiply-accumulate op; RunDisjoint takes its
// k-unrolled row kernel on fully covered blocks.
var mulUpdate = core.MulAdd[float64]{}

// runIncore measures the engines on the paper's two headline in-core
// instances — Floyd-Warshall through RunIGEP and matrix multiplication
// through RunDisjoint, the one path every caller runs — against the
// paper's comparators: the loop-optimized iterative FWGEP and the
// cache-aware tiled multiply MulTiled. The engine rows are the
// regression-gated ones: their identity (engine, n) is stable across
// PRs, so `gep-bench compare` on two BENCH_incore.json files shows
// exactly how much an engine change moved the hot path.
func runIncore(w io.Writer, scale Scale) error {
	sizes := []int{256, 512}
	if scale == Full {
		sizes = []int{512, 1024}
	}
	base := 64

	fmt.Fprintf(w, "In-core engine kernels (base=%d):\n", base)
	var t Table
	t.Header("n", "igep-fw", "gep-fw", "igep-mm", "tiled-mm", "fw engine/GEP", "mm engine/tiled")
	for _, n := range sizes {
		reps := 3
		if n >= 1024 {
			reps = 2
		}
		din := fwInput(n, int64(n))
		a, b := randDense(n, int64(n)+1), randDense(n, int64(n)+2)
		flops := 2 * float64(n) * float64(n) * float64(n)

		dFW, metFW := TimeBestMetered(reps, func() {
			m := din.Clone()
			core.RunIGEP[float64](m, fwUpdate, core.Full{}, core.WithBaseSize[float64](base))
		})
		Record(Row{Engine: "igep-fw", N: n, Wall: dFW, Metrics: metFW})

		dFWg, metFWg := TimeBestMetered(reps, func() {
			m := din.Clone()
			apsp.FWGEP(m)
		})
		Record(Row{Engine: "gep-fw", N: n, Wall: dFWg, Metrics: metFWg})

		dMM, metMM := TimeBestMetered(reps, func() {
			c := matrix.NewSquare[float64](n)
			core.RunDisjoint[float64](c, a, b, b, mulUpdate, core.Full{}, core.WithBaseSize[float64](base))
		})
		g := GFLOPS(flops, dMM)
		Record(Row{Engine: "igep-mm", N: n, Wall: dMM, GFLOPS: g, Metrics: metMM})

		dMMt, metMMt := TimeBestMetered(reps, func() {
			c := matrix.NewSquare[float64](n)
			linalg.MulTiled(c, a, b, base)
		})
		gt := GFLOPS(flops, dMMt)
		Record(Row{Engine: "tiled-mm", N: n, Wall: dMMt, GFLOPS: gt, Metrics: metMMt})

		t.Row(n, dFW, dFWg, dMM, dMMt,
			float64(dFW)/float64(dFWg), float64(dMM)/float64(dMMt))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nThe engine rows (igep-*) are the regression-gated hot paths; gep-fw is")
	fmt.Fprintln(w, "the loop-optimized iterative comparator, tiled-mm the cache-aware one.")
	return nil
}
