package gep_test

// One testing.B benchmark per table and figure of the paper (§4), each
// delegating to the experiment harness at Small scale, plus
// per-kernel microbenchmarks and the ablation benches of DESIGN.md §5.
//
// Regenerate everything textually with:
//
//	go run ./cmd/gep-bench -scale full all
//
// or through the benchmarks:
//
//	go test -bench=. -benchmem

import (
	"io"
	"math/rand"
	"testing"

	"gep"
	"gep/internal/apsp"
	"gep/internal/bench"
	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/matrix"
	"gep/internal/sched"
)

// runExperiment executes a registered experiment once per iteration.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	e, ok := bench.Get(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, bench.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_TheoremCheck(b *testing.B)    { runExperiment(b, "table1") }
func BenchmarkTable2_Machine(b *testing.B)         { runExperiment(b, "table2") }
func BenchmarkFig7a_OutOfCoreVsM(b *testing.B)     { runExperiment(b, "fig7a") }
func BenchmarkFig7b_OutOfCoreVsMB(b *testing.B)    { runExperiment(b, "fig7b") }
func BenchmarkFig8_InCoreFW(b *testing.B)          { runExperiment(b, "fig8") }
func BenchmarkFig9_IGEPvsCGEP(b *testing.B)        { runExperiment(b, "fig9") }
func BenchmarkFig10_GaussianVsTiled(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11_MultiplyVsTiled(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12_ParallelSpeedup(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkAblation_BaseSize(b *testing.B)      { runExperiment(b, "ablation-base") }
func BenchmarkAblation_Layout(b *testing.B)        { runExperiment(b, "ablation-layout") }
func BenchmarkAblation_Pruning(b *testing.B)       { runExperiment(b, "ablation-prune") }
func BenchmarkAblation_ParallelGrain(b *testing.B) { runExperiment(b, "ablation-grain") }
func BenchmarkLemma31_ParallelCaches(b *testing.B) { runExperiment(b, "lemma31") }

// ---- per-kernel microbenchmarks -----------------------------------

const microN = 256

func randSquare(n int, seed int64) *matrix.Dense[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewSquare[float64](n)
	m.Apply(func(i, j int, _ float64) float64 { return rng.Float64() })
	return m
}

func BenchmarkMulNaive(b *testing.B) {
	a, bb := randSquare(microN, 1), randSquare(microN, 2)
	c := matrix.NewSquare[float64](microN)
	b.SetBytes(int64(linalg.MulFlops(microN)))
	for i := 0; i < b.N; i++ {
		linalg.MulNaive(c, a, bb)
	}
}

func BenchmarkMulFused(b *testing.B) {
	a, bb := randSquare(microN, 1), randSquare(microN, 2)
	c := matrix.NewSquare[float64](microN)
	b.SetBytes(int64(linalg.MulFlops(microN)))
	for i := 0; i < b.N; i++ {
		linalg.MulFused(c, a, bb, 64)
	}
}

func BenchmarkMulTiled(b *testing.B) {
	a, bb := randSquare(microN, 1), randSquare(microN, 2)
	c := matrix.NewSquare[float64](microN)
	b.SetBytes(int64(linalg.MulFlops(microN)))
	for i := 0; i < b.N; i++ {
		linalg.MulTiled(c, a, bb, 64)
	}
}

func BenchmarkMulFusedParallel(b *testing.B) {
	a, bb := randSquare(microN, 1), randSquare(microN, 2)
	c := matrix.NewSquare[float64](microN)
	b.SetBytes(int64(linalg.MulFlops(microN)))
	for i := 0; i < b.N; i++ {
		linalg.MulFused(c, a, bb, 64, core.WithParallel[float64](128))
	}
}

func benchLU(b *testing.B, factor func(*matrix.Dense[float64])) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	in := matrix.NewSquare[float64](microN)
	in.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return float64(2 * microN)
		}
		return rng.Float64()
	})
	b.SetBytes(int64(linalg.GEFlops(microN)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := in.Clone()
		b.StartTimer()
		factor(m)
	}
}

func BenchmarkLUGEP(b *testing.B) { benchLU(b, linalg.LUGEP) }
func BenchmarkLUIGEP(b *testing.B) {
	benchLU(b, func(m *matrix.Dense[float64]) { linalg.LUIGEP(m, 64) })
}
func BenchmarkLUTiled(b *testing.B) {
	benchLU(b, func(m *matrix.Dense[float64]) { linalg.LUTiled(m, 64) })
}

func benchFW(b *testing.B, run func(*matrix.Dense[float64])) {
	b.Helper()
	g := apsp.Random(microN, 0.3, 1000, 4)
	in := g.DistanceMatrix()
	b.SetBytes(int64(apsp.FWFlops(microN)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := in.Clone()
		b.StartTimer()
		run(d)
	}
}

func BenchmarkFWGEP(b *testing.B) { benchFW(b, apsp.FWGEP) }
func BenchmarkFWFused(b *testing.B) {
	benchFW(b, func(d *matrix.Dense[float64]) { apsp.FWFused(d, 64) })
}

// BenchmarkFacadeGeneric measures the generic-engine overhead relative
// to the specialized kernels (interface dispatch + closure calls).
func BenchmarkFacadeGeneric(b *testing.B) {
	g := apsp.Random(128, 0.3, 1000, 5)
	in := g.DistanceMatrix()
	minPlus := gep.UpdateFunc[float64](func(i, j, k int, x, u, v, w float64) float64 {
		if s := u + v; s < x {
			return s
		}
		return x
	})
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := in.Clone()
		b.StartTimer()
		gep.CacheOblivious[float64](d, minPlus, gep.Full, gep.WithBaseSize[float64](32))
	}
}

// BenchmarkSchedFlatten measures DAG construction and scheduling cost
// for the Figure 12 simulation itself.
func BenchmarkSchedFlatten(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plan := sched.BuildPlan(sched.FW, 512, 32)
		d := sched.Flatten(plan)
		_ = sched.Schedule(d, 8)
	}
}
