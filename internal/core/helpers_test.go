package core

import (
	"math/rand"
	"testing"

	"gep/internal/matrix"
)

// Test helpers shared by the core tests: deterministic random
// matrices, random update sets, and a family of exact-arithmetic
// update functions over int64 for which different value histories
// yield different outputs (so any semantic divergence is caught).

func randMatrix(t *testing.T, rng *rand.Rand, n int) *matrix.Dense[int64] {
	t.Helper()
	m := matrix.NewSquare[int64](n)
	m.Apply(func(i, j int, _ int64) int64 { return rng.Int63n(100) - 50 })
	return m
}

func randFloatMatrix(rng *rand.Rand, n int) *matrix.Dense[float64] {
	m := matrix.NewSquare[float64](n)
	m.Apply(func(i, j int, _ float64) float64 { return rng.Float64()*10 - 5 })
	return m
}

// randExplicit returns a random update set over [0,n)³ where each
// triple is present independently with probability p.
func randExplicit(rng *rand.Rand, n int, p float64) *Explicit {
	s := NewExplicit(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if rng.Float64() < p {
					s.Add(i, j, k)
				}
			}
		}
	}
	return s
}

// testFuncs is a family of update functions chosen so that supplying a
// value from the wrong state almost surely changes the result.
var testFuncs = map[string]UpdateFunc[int64]{
	"linear": func(i, j, k int, x, u, v, w int64) int64 {
		return x + 2*u + 3*v + 5*w
	},
	"affine-indexed": func(i, j, k int, x, u, v, w int64) int64 {
		return x + u - v + 7*w + int64(i-j+k)
	},
	"minplus": func(i, j, k int, x, u, v, w int64) int64 {
		if u+v < x {
			return u + v
		}
		return x
	},
	"mix": func(i, j, k int, x, u, v, w int64) int64 {
		return 3*x - u + v ^ (w << 1)
	},
}

// runOnClone applies run to a clone of src and returns the result.
func runOnClone(src *matrix.Dense[int64], run func(m *matrix.Dense[int64])) *matrix.Dense[int64] {
	m := src.Clone()
	run(m)
	return m
}

func requireEqual(t *testing.T, want, got *matrix.Dense[int64], label string) {
	t.Helper()
	if !matrix.Equal(want, got) {
		t.Fatalf("%s: result differs from reference\nwant:\n%v\ngot:\n%v", label, want, got)
	}
}

// fwMin is the Floyd-Warshall min-plus update over float64.
var fwMin UpdateFunc[float64] = func(i, j, k int, x, u, v, w float64) float64 {
	if d := u + v; d < x {
		return d
	}
	return x
}

// igepKernel is the Grid loop over one matrix: the generic oracle of
// the kernel tests.
func igepKernel[T any](c matrix.Grid[T], f UpdateFunc[T], set UpdateSet, i0, j0, k0, s int) {
	gridKernel(c, c, c, c, f, set, i0, j0, k0, s)
}
