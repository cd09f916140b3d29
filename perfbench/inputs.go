package main

import (
	"math"
	"math/rand"

	"gep"
	"gep/internal/matrix"
)

// Input generators. Every input is drawn from a math/rand source seeded
// from the workload seed, so the same seed gives the same inputs.

// newRand derives an independent source for one input stream.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// uniform is an n×n matrix of entries in [-1, 1).
func uniform(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n*n)
	for i := range out {
		out[i] = 2*rng.Float64() - 1
	}
	return out
}

// dominant is uniform plus n on the diagonal: strictly diagonally
// dominant, so LU without pivoting is stable.
func dominant(rng *rand.Rand, n int) []float64 {
	out := uniform(rng, n)
	for i := 0; i < n; i++ {
		out[i*n+i] += float64(n)
	}
	return out
}

// weights is a G(n, p) digraph as an edge-weight matrix: 0 on the
// diagonal, integer weights in [1, 100] (exact in min-plus arithmetic),
// +Inf where there is no edge.
func weights(rng *rand.Rand, n int, p float64) []float64 {
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
			case rng.Float64() < p:
				out[i*n+j] = float64(1 + rng.Intn(100))
			default:
				out[i*n+j] = math.Inf(1)
			}
		}
	}
	return out
}

// adjacency is a G(n, deg/n) digraph as a 0/1 matrix without self-loops.
func adjacency(rng *rand.Rand, n int, deg float64) []float64 {
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < deg/float64(n) {
				out[i*n+j] = 1
			}
		}
	}
	return out
}

// vector is n entries in [-1, 1).
func vector(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 2*rng.Float64() - 1
	}
	return out
}

// dense wraps row-major data as a matrix (copying it).
func dense(data []float64, n int) *gep.Matrix[float64] {
	return matrix.FromSlice(n, n, data)
}
