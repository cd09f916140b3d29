package apsp

import (
	"testing"

	"gep/internal/matrix"
)

const benchN = 256

func benchGraph() *Graph { return Random(benchN, 0.3, 1000, 1) }

func benchFWVariant(b *testing.B, run func(*matrix.Dense[float64])) {
	b.Helper()
	in := benchGraph().DistanceMatrix()
	b.SetBytes(int64(FWFlops(benchN)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := in.Clone()
		b.StartTimer()
		run(d)
	}
}

func BenchmarkFWGEPPureKernel(b *testing.B) { benchFWVariant(b, FWGEPPure) }
func BenchmarkFWGEPKernel(b *testing.B)     { benchFWVariant(b, FWGEP) }
func BenchmarkFWFusedKernel(b *testing.B) {
	benchFWVariant(b, func(d *matrix.Dense[float64]) { FWFused(d, 64) })
}

func BenchmarkDijkstraAllPairs(b *testing.B) {
	g := benchGraph()
	for i := 0; i < b.N; i++ {
		_ = AllPairsDijkstra(g)
	}
}

func BenchmarkJohnson(b *testing.B) {
	g := benchGraph()
	for i := 0; i < b.N; i++ {
		if _, err := Johnson(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransitiveClosure(b *testing.B) {
	g := Random(benchN, 2.0/float64(benchN), 5, 2)
	for i := 0; i < b.N; i++ {
		_ = g.Reachability()
	}
}

func BenchmarkPathReconstruction(b *testing.B) {
	g := benchGraph()
	d := Solve(g, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Path(g, d, i%benchN, (i*7+1)%benchN)
	}
}
