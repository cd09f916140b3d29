package linalg

import (
	"math/rand"
	"testing"

	"gep/internal/matrix"
)

// Kernel microbenchmarks (n = 256 keeps `go test -bench ./...` quick;
// the figure-level sweeps live in the root bench_test.go).

const benchN = 256

func benchInput(seed int64) *matrix.Dense[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewSquare[float64](benchN)
	m.Apply(func(i, j int, _ float64) float64 { return rng.Float64() })
	return m
}

func benchDominant(seed int64) *matrix.Dense[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewSquare[float64](benchN)
	m.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return float64(2 * benchN)
		}
		return rng.Float64()
	})
	return m
}

func BenchmarkMulNaiveKernel(b *testing.B) {
	a, bb, c := benchInput(1), benchInput(2), matrix.NewSquare[float64](benchN)
	b.SetBytes(int64(MulFlops(benchN)))
	for i := 0; i < b.N; i++ {
		MulNaive(c, a, bb)
	}
}

func BenchmarkMulJKIKernel(b *testing.B) {
	a, bb, c := benchInput(1), benchInput(2), matrix.NewSquare[float64](benchN)
	b.SetBytes(int64(MulFlops(benchN)))
	for i := 0; i < b.N; i++ {
		MulJKI(c, a, bb)
	}
}

func BenchmarkMulFusedKernel(b *testing.B) {
	a, bb, c := benchInput(1), benchInput(2), matrix.NewSquare[float64](benchN)
	b.SetBytes(int64(MulFlops(benchN)))
	for i := 0; i < b.N; i++ {
		MulFused(c, a, bb, 64)
	}
}

func BenchmarkMulTiledKernel(b *testing.B) {
	a, bb, c := benchInput(1), benchInput(2), matrix.NewSquare[float64](benchN)
	b.SetBytes(int64(MulFlops(benchN)))
	for i := 0; i < b.N; i++ {
		MulTiled(c, a, bb, 64)
	}
}

func BenchmarkMulMortonKernel(b *testing.B) {
	a, bb := benchInput(1), benchInput(2)
	at := matrix.NewTiled[float64](benchN, 64)
	bt := matrix.NewTiled[float64](benchN, 64)
	ct := matrix.NewTiled[float64](benchN, 64)
	at.FromDense(a)
	bt.FromDense(bb)
	b.SetBytes(int64(MulFlops(benchN)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTiledMorton(ct, at, bt, 64)
	}
}

func benchFactor(b *testing.B, factor func(*matrix.Dense[float64])) {
	b.Helper()
	in := benchDominant(3)
	b.SetBytes(int64(GEFlops(benchN)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := in.Clone()
		b.StartTimer()
		factor(m)
	}
}

func BenchmarkLUGEPKernel(b *testing.B)    { benchFactor(b, LUGEP) }
func BenchmarkLUGEPOptKernel(b *testing.B) { benchFactor(b, LUGEPOpt) }
func BenchmarkLUIGEPKernel(b *testing.B) {
	benchFactor(b, func(m *matrix.Dense[float64]) { LUIGEP(m, 64) })
}
func BenchmarkLUTiledKernel(b *testing.B) {
	benchFactor(b, func(m *matrix.Dense[float64]) { LUTiled(m, 64) })
}
func BenchmarkLUPivoted(b *testing.B) {
	in := benchDominant(4)
	b.SetBytes(int64(GEFlops(benchN)))
	for i := 0; i < b.N; i++ {
		if _, err := Factor(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve(b *testing.B) {
	in := benchDominant(5)
	lu := in.Clone()
	LUIGEP(lu, 64)
	rhs := make([]float64, benchN)
	for i := range rhs {
		rhs[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SolveLU(lu, rhs)
	}
}

func BenchmarkInvert(b *testing.B) {
	in := benchDominant(6)
	for i := 0; i < b.N; i++ {
		_ = Invert(in)
	}
}
