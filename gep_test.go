package gep_test

import (
	"math"
	"math/rand"
	"testing"

	"gep"
)

// Facade-level tests: exercise the public API exactly as a downstream
// user would.

func TestIterativeVsCacheObliviousFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 32
	d := gep.NewMatrix[float64](n)
	d.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return 0
		}
		if rng.Float64() < 0.4 {
			return math.Inf(1)
		}
		return float64(rng.Intn(100) + 1)
	})
	minPlus := gep.UpdateFunc[float64](func(i, j, k int, x, u, v, w float64) float64 {
		if s := u + v; s < x {
			return s
		}
		return x
	})
	want := d.Clone()
	gep.Iterative[float64](want, minPlus, gep.Full)
	got := d.Clone()
	gep.CacheOblivious[float64](got, minPlus, gep.Full, gep.WithBaseSize[float64](8))
	if !got.EqualFunc(want, func(a, b float64) bool { return a == b }) {
		t.Fatal("CacheOblivious differs from Iterative on Floyd-Warshall")
	}
	par := d.Clone()
	gep.CacheOblivious[float64](par, minPlus, gep.Full, gep.WithParallel[float64](8))
	if !par.EqualFunc(want, func(a, b float64) bool { return a == b }) {
		t.Fatal("parallel CacheOblivious differs from Iterative on Floyd-Warshall")
	}
}

func TestGeneralMatchesIterativeAlways(t *testing.T) {
	// The paper's §2.2.1 counterexample through the public API.
	sum := gep.UpdateFunc[int64](func(i, j, k int, x, u, v, w int64) int64 { return x + u + v + w })
	in := gep.FromRows([][]int64{{0, 0}, {0, 1}})

	g := in.Clone()
	gep.Iterative[int64](g, sum, gep.Full)
	f := in.Clone()
	// Base 1: the §2.2.1 divergence belongs to the pure recursion; the
	// automatic base size would run this 2×2 instance as one iterative
	// block and coincide with Iterative.
	gep.CacheOblivious[int64](f, sum, gep.Full, gep.WithBaseSize[int64](1))
	if f.At(1, 0) == g.At(1, 0) {
		t.Fatal("expected I-GEP to diverge on the counterexample")
	}
	for name, run := range map[string]func(*gep.Matrix[int64]){
		"General":        func(m *gep.Matrix[int64]) { gep.General[int64](m, sum, gep.Full) },
		"GeneralCompact": func(m *gep.Matrix[int64]) { gep.GeneralCompact[int64](m, sum, gep.Full) },
	} {
		h := in.Clone()
		run(h)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if h.At(i, j) != g.At(i, j) {
					t.Fatalf("%s differs from Iterative at (%d,%d)", name, i, j)
				}
			}
		}
	}
}

func TestPredicateSet(t *testing.T) {
	n := 8
	set := gep.Predicate(func(i, j, k int) bool { return (i+j+k)%2 == 0 })
	f := gep.UpdateFunc[int64](func(i, j, k int, x, u, v, w int64) int64 { return x + u - v + 2*w })
	in := gep.NewMatrix[int64](n)
	in.Apply(func(i, j int, _ int64) int64 { return int64(i*n + j) })
	want := in.Clone()
	gep.Iterative[int64](want, f, set)
	got := in.Clone()
	gep.General[int64](got, f, set)
	if !got.EqualFunc(want, func(a, b int64) bool { return a == b }) {
		t.Fatal("General differs from Iterative on a predicate set")
	}
}

func TestMultiply(t *testing.T) {
	n := 64
	rng := rand.New(rand.NewSource(2))
	a := gep.NewMatrix[float64](n)
	b := gep.NewMatrix[float64](n)
	a.Apply(func(i, j int, _ float64) float64 { return rng.Float64() })
	b.Apply(func(i, j int, _ float64) float64 { return rng.Float64() })
	c := gep.NewMatrix[float64](n)
	gep.Multiply(c, a, b)
	cp := gep.NewMatrix[float64](n)
	gep.MultiplyParallel(cp, a, b)

	// Spot-check against a direct dot product.
	for _, ij := range [][2]int{{0, 0}, {3, 7}, {63, 1}, {31, 31}} {
		i, j := ij[0], ij[1]
		dot := 0.0
		for k := 0; k < n; k++ {
			dot += a.At(i, k) * b.At(k, j)
		}
		if math.Abs(c.At(i, j)-dot) > 1e-10 {
			t.Fatalf("Multiply wrong at (%d,%d): %g vs %g", i, j, c.At(i, j), dot)
		}
		if c.At(i, j) != cp.At(i, j) {
			t.Fatalf("MultiplyParallel differs at (%d,%d)", i, j)
		}
	}
}

func TestMultiplyStrassen(t *testing.T) {
	for _, n := range []int{64, 97} { // pow2 and odd (peeled) sides
		rng := rand.New(rand.NewSource(4))
		a := gep.NewMatrix[float64](n)
		b := gep.NewMatrix[float64](n)
		a.Apply(func(i, j int, _ float64) float64 { return rng.Float64()*2 - 1 })
		b.Apply(func(i, j int, _ float64) float64 { return rng.Float64()*2 - 1 })
		c := gep.NewMatrix[float64](n)
		gep.MultiplyStrassen(c, a, b)
		cp := gep.NewMatrix[float64](n)
		gep.MultiplyStrassen(cp, a, b, gep.WithParallel[float64](64))
		if !c.EqualFunc(cp, func(x, y float64) bool { return x == y }) {
			t.Fatal("MultiplyStrassen with WithParallel not bit-identical to serial")
		}
		for _, ij := range [][2]int{{0, 0}, {3, 7}, {n - 1, 1}, {n / 2, n / 2}} {
			i, j := ij[0], ij[1]
			dot := 0.0
			for k := 0; k < n; k++ {
				dot += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(c.At(i, j)-dot) > 1e-9 {
				t.Fatalf("MultiplyStrassen n=%d wrong at (%d,%d): %g vs %g", n, i, j, c.At(i, j), dot)
			}
		}
	}
}

func TestFloydWarshallNonPow2(t *testing.T) {
	d := gep.FromRows([][]float64{
		{0, 4, math.Inf(1)},
		{math.Inf(1), 0, 1},
		{2, math.Inf(1), 0},
	})
	gep.FloydWarshall(d)
	want := [][]float64{{0, 4, 5}, {3, 0, 1}, {2, 6, 0}}
	for i := range want {
		for j := range want[i] {
			if d.At(i, j) != want[i][j] {
				t.Fatalf("d[%d][%d] = %g, want %g", i, j, d.At(i, j), want[i][j])
			}
		}
	}
}

func TestFloydWarshallParallelNonPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 3, 5, 12, 33} {
		d := gep.NewMatrix[float64](n)
		d.Apply(func(i, j int, _ float64) float64 {
			if i == j {
				return 0
			}
			if rng.Float64() < 0.3 {
				return math.Inf(1)
			}
			return float64(rng.Intn(100) + 1)
		})
		ref := d.Clone()
		gep.FloydWarshall(ref)
		gep.FloydWarshallParallel(d)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d.At(i, j) != ref.At(i, j) {
					t.Fatalf("n=%d: parallel FW differs at (%d,%d): %g vs %g",
						n, i, j, d.At(i, j), ref.At(i, j))
				}
			}
		}
	}
}

func TestSolveNonPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{5, 16, 37} {
		a := gep.NewMatrix[float64](n)
		a.Apply(func(i, j int, _ float64) float64 {
			if i == j {
				return float64(2 * n)
			}
			return rng.Float64()
		})
		orig := a.Clone()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += orig.At(i, j) * x[j]
			}
		}
		got := gep.Solve(a, b)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				t.Fatalf("n=%d: x[%d] = %g, want %g", n, i, got[i], x[i])
			}
		}
	}
}

// TestParallelPackedClosureNoRace forks the packed closure with a grain
// of 8 columns, so without the word-alignment rule sibling quadrants
// would write the same uint64 concurrently (go test -race reports it,
// and updates can be lost). The engine raises the grain to one word,
// so the result must equal the serial run bit for bit.
func TestParallelPackedClosureNoRace(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(12))
	src := gep.NewBitMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			src.Set(i, j, i == j || rng.Intn(100) < 2)
		}
	}
	want := src.Clone()
	gep.CacheOblivious[bool](want, gep.ClosureOp(), gep.Full, gep.WithBaseSize[bool](8))
	rt := gep.NewRuntime(4)
	defer rt.Close()
	for name, opts := range map[string][]gep.Option[bool]{
		"default runtime": {gep.WithBaseSize[bool](8), gep.WithParallel[bool](8)},
		"own runtime":     {gep.WithBaseSize[bool](8), gep.WithParallel[bool](8), gep.WithRuntime[bool](rt)},
	} {
		got := src.Clone()
		gep.CacheOblivious[bool](got, gep.ClosureOp(), gep.Full, opts...)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("%s: cell (%d,%d) = %v, serial run has %v", name, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestPadCrop(t *testing.T) {
	m := gep.FromRows([][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	p := gep.Pad(m, 0, 1)
	if p.N() != 4 || p.At(3, 3) != 1 || p.At(0, 3) != 0 {
		t.Fatalf("Pad wrong: %v", p)
	}
	back := gep.Crop(p, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if back.At(i, j) != m.At(i, j) {
				t.Fatal("Crop lost data")
			}
		}
	}
}

func TestInvertDeterminantFacade(t *testing.T) {
	a := gep.FromRows([][]float64{{4, 1}, {2, 3}})
	if d := gep.Determinant(a); math.Abs(d-10) > 1e-12 {
		t.Fatalf("det = %g, want 10", d)
	}
	inv := gep.Invert(a)
	want := [][]float64{{0.3, -0.1}, {-0.2, 0.4}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(inv.At(i, j)-want[i][j]) > 1e-12 {
				t.Fatalf("inv[%d][%d] = %g, want %g", i, j, inv.At(i, j), want[i][j])
			}
		}
	}
}

func TestTransitiveClosureFacade(t *testing.T) {
	r := gep.NewMatrix[bool](3)
	r.Set(0, 1, true)
	r.Set(1, 2, true)
	gep.TransitiveClosure(r)
	if !r.At(0, 2) || r.At(2, 0) {
		t.Fatalf("closure wrong: %v", r)
	}
}

func TestMatrixChainFacade(t *testing.T) {
	cost, order := gep.MatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
	if cost != 15125 || order == "" {
		t.Fatalf("MatrixChain = %g, %q", cost, order)
	}
}

func TestAlignFacade(t *testing.T) {
	x, y := "GATTACA", "GCATGCU"
	costs := gep.GapCosts{
		Sub: func(i, j int) float64 {
			if x[i-1] == y[j-1] {
				return 0
			}
			return 1
		},
		GapX: func(p, i int) float64 { return float64(i - p) },
		GapY: func(q, j int) float64 { return float64(j - q) },
	}
	d := gep.Align(len(x), len(y), costs)
	// Unit-cost edit distance of GATTACA/GCATGCU is 4.
	if got := d.At(len(x), len(y)); got != 4 {
		t.Fatalf("alignment cost = %g, want 4", got)
	}
}

func TestCheckLegalityFacade(t *testing.T) {
	sum := gep.UpdateFunc[int64](func(i, j, k int, x, u, v, w int64) int64 { return x + u + v + w })
	if r := gep.CheckLegality(sum, gep.Full, 8, 4, 1, nil); r.Legal {
		t.Fatal("sum not flagged illegal")
	}
}

func TestGeneralParallelFacade(t *testing.T) {
	sum := gep.UpdateFunc[int64](func(i, j, k int, x, u, v, w int64) int64 { return x + u + v + w })
	in := gep.NewMatrix[int64](16)
	in.Apply(func(i, j int, _ int64) int64 { return int64(i*3 - j) })
	want := in.Clone()
	gep.Iterative[int64](want, sum, gep.Full)
	got := in.Clone()
	gep.General[int64](got, sum, gep.Full, gep.WithParallel[int64](4))
	if !got.EqualFunc(want, func(a, b int64) bool { return a == b }) {
		t.Fatal("parallel General differs from Iterative")
	}
}

func TestParallelFacadeWrappers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{128, 100} {
		d := gep.NewMatrix[float64](n)
		d.Apply(func(i, j int, _ float64) float64 {
			if i == j {
				return 0
			}
			return float64(rng.Intn(500) + 1)
		})
		serial := d.Clone()
		gep.FloydWarshall(serial)
		par := d.Clone()
		gep.FloydWarshallParallel(par)
		if !par.EqualFunc(serial, func(a, b float64) bool { return a == b }) {
			t.Fatalf("n=%d: FloydWarshallParallel differs from FloydWarshall", n)
		}

		a := gep.NewMatrix[float64](n)
		a.Apply(func(i, j int, _ float64) float64 {
			if i == j {
				return float64(2 * n)
			}
			return rng.Float64()
		})
		s := a.Clone()
		gep.Factorize(s)
		p := a.Clone()
		gep.FactorizeParallel(p)
		if !p.EqualFunc(s, func(x, y float64) bool { return x == y }) {
			t.Fatalf("n=%d: FactorizeParallel differs from Factorize", n)
		}
	}
}
