package gep_test

// End-to-end stress tests through the public API, exercising realistic
// non-power-of-two sizes against independent oracles. Guarded by
// -short so quick runs skip them.

import (
	"math"
	"math/rand"
	"testing"

	"gep"
	"gep/internal/apsp"
	"gep/internal/linalg"
)

func TestStressFloydWarshallFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, n := range []int{100, 200, 300} {
		g := apsp.Random(n, 4.0/float64(n), 100, int64(n))
		d := g.DistanceMatrix()
		gep.FloydWarshall(d)
		oracle := apsp.AllPairsDijkstra(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d.At(i, j) != oracle.At(i, j) {
					t.Fatalf("n=%d: (%d,%d) = %g, oracle %g", n, i, j, d.At(i, j), oracle.At(i, j))
				}
			}
		}
	}
}

func TestStressSolveAndInvert(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{50, 150, 250} {
		a := gep.NewMatrix[float64](n)
		a.Apply(func(i, j int, _ float64) float64 {
			if i == j {
				return float64(3 * n)
			}
			return rng.NormFloat64()
		})
		orig := a.Clone()

		// Solve against a manufactured solution.
		want := make([]float64, n)
		for i := range want {
			want[i] = math.Sin(float64(i))
		}
		b := linalg.MatVec(orig, want)
		x := gep.Solve(a.Clone(), b)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-8 {
				t.Fatalf("n=%d: x[%d] off by %g", n, i, x[i]-want[i])
			}
		}

		// Invert and check A·A⁻¹ ≈ I on sampled entries.
		inv := gep.Invert(orig)
		for trial := 0; trial < 50; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			dot := 0.0
			for k := 0; k < n; k++ {
				dot += orig.At(i, k) * inv.At(k, j)
			}
			wantv := 0.0
			if i == j {
				wantv = 1
			}
			if math.Abs(dot-wantv) > 1e-8 {
				t.Fatalf("n=%d: (A·A⁻¹)[%d][%d] = %g", n, i, j, dot)
			}
		}
	}
}

func TestStressGeneralAgainstIterative(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(8))
	fs := []gep.UpdateFunc[int64]{
		func(i, j, k int, x, u, v, w int64) int64 { return x + u + v + w },
		func(i, j, k int, x, u, v, w int64) int64 { return x ^ (u + v*w) },
		func(i, j, k int, x, u, v, w int64) int64 { return 2*x - u + 3*v - 5*w + int64(i*j-k) },
	}
	for _, n := range []int{32, 64, 128} {
		mod := rng.Intn(5) + 2
		rem := rng.Intn(mod)
		set := gep.Predicate(func(i, j, k int) bool { return (i+2*j+3*k)%mod == rem })
		f := fs[rng.Intn(len(fs))]
		in := gep.NewMatrix[int64](n)
		in.Apply(func(i, j int, _ int64) int64 { return rng.Int63n(100) - 50 })
		want := in.Clone()
		gep.Iterative[int64](want, f, set)
		for name, run := range map[string]func(*gep.Matrix[int64]){
			"general": func(m *gep.Matrix[int64]) {
				gep.General[int64](m, f, set, gep.WithBaseSize[int64](8))
			},
			"compact": func(m *gep.Matrix[int64]) {
				gep.GeneralCompact[int64](m, f, set, gep.WithBaseSize[int64](8))
			},
			"parallel": func(m *gep.Matrix[int64]) {
				gep.General[int64](m, f, set, gep.WithBaseSize[int64](8), gep.WithParallel[int64](16))
			},
		} {
			got := in.Clone()
			run(got)
			if !got.EqualFunc(want, func(a, b int64) bool { return a == b }) {
				t.Fatalf("n=%d: %s diverged from Iterative", n, name)
			}
		}
	}
}

func TestStressMatrixChainAgainstIterative(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		n := 60 + trial*30
		dims := make([]int, n+1)
		for i := range dims {
			dims[i] = rng.Intn(40) + 1
		}
		cost, order := gep.MatrixChain(dims)
		if order == "" {
			t.Fatal("empty order")
		}
		// Independent iterative check.
		c := make([][]float64, n+1)
		for i := range c {
			c[i] = make([]float64, n+1)
		}
		for span := 2; span <= n; span++ {
			for i := 0; i+span <= n; i++ {
				j := i + span
				best := math.Inf(1)
				for k := i + 1; k < j; k++ {
					cand := c[i][k] + c[k][j] + float64(dims[i]*dims[k]*dims[j])
					if cand < best {
						best = cand
					}
				}
				c[i][j] = best
			}
		}
		if cost != c[0][n] {
			t.Fatalf("n=%d: cache-oblivious cost %g vs iterative %g", n, cost, c[0][n])
		}
	}
}
