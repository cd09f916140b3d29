package core

import (
	"math"
	"math/rand"
	"testing"

	"gep/internal/matrix"
	"gep/internal/par"
)

// I-GEP must agree with iterative GEP on every instance the paper
// proves it correct for: Floyd-Warshall (Full set, min-plus f),
// Gaussian elimination (Gaussian set), LU decomposition (LU set).
// These tests sweep sizes and base-kernel sizes.

// fwInf is the "no edge" sentinel for exact-arithmetic Floyd-Warshall:
// large enough that no real path competes, small enough that sums of a
// few sentinels cannot overflow int64.
const fwInf = int64(1) << 40

// fwMinInt is min-plus over int64; exact, so I-GEP and GEP results are
// comparable with ==. (Over float64 the two may associate the same
// path sum differently and differ in the last ulp — see
// TestIGEPFloydWarshallFloat.)
var fwMinInt UpdateFunc[int64] = func(i, j, k int, x, u, v, w int64) int64 {
	if d := u + v; d < x {
		return d
	}
	return x
}

func floydWarshallInputInt(rng *rand.Rand, n int) *matrix.Dense[int64] {
	c := matrix.NewSquare[int64](n)
	c.Apply(func(i, j int, _ int64) int64 {
		if i == j {
			return 0
		}
		if rng.Float64() < 0.3 {
			return fwInf // no edge
		}
		return rng.Int63n(1000) + 1
	})
	return c
}

func floydWarshallInput(rng *rand.Rand, n int) *matrix.Dense[float64] {
	c := matrix.NewSquare[float64](n)
	c.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return 0
		}
		if rng.Float64() < 0.3 {
			return math.Inf(1) // no edge
		}
		return rng.Float64() * 10
	})
	return c
}

func TestIGEPFloydWarshallMatchesGEP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, base := range []int{1, 2, 4, 16} {
			in := floydWarshallInputInt(rng, n)
			want := in.Clone()
			RunGEP[int64](want, fwMinInt, Full{})
			got := in.Clone()
			RunIGEP[int64](got, fwMinInt, Full{}, WithBaseSize[int64](base))
			requireEqual(t, want, got, "I-GEP Floyd-Warshall")
		}
	}
}

// TestIGEPFloydWarshallFloat: over float64, I-GEP's distances agree
// with GEP's up to floating-point associativity of path sums (the
// update sequences associate the same shortest path differently).
func TestIGEPFloydWarshallFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	approx := func(a, b float64) bool {
		if a == b {
			return true // covers ±Inf
		}
		d := math.Abs(a - b)
		return d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	for _, n := range []int{4, 16, 64} {
		for _, base := range []int{1, 4} {
			in := floydWarshallInput(rng, n)
			want := in.Clone()
			RunGEP[float64](want, fwMin, Full{})
			got := in.Clone()
			RunIGEP[float64](got, fwMin, Full{}, WithBaseSize[float64](base))
			if !got.EqualFunc(want, approx) {
				t.Fatalf("n=%d base=%d: float Floyd-Warshall diverged beyond fp tolerance", n, base)
			}
		}
	}
}

// geUpdate is Gaussian elimination without pivoting: eliminate c[i,j]
// using row k. Applied over the Gaussian set {k < i, k < j}.
var geUpdate UpdateFunc[float64] = func(i, j, k int, x, u, v, w float64) float64 {
	return x - u*v/w
}

// luUpdate is LU decomposition without pivoting over the LU set
// {k < i, k <= j}: the j == k update stores the multiplier.
var luUpdate UpdateFunc[float64] = func(i, j, k int, x, u, v, w float64) float64 {
	if j == k {
		return x / w
	}
	return x - u*v
}

// diagDominant returns a diagonally dominant random matrix, for which
// elimination without pivoting is numerically safe.
func diagDominant(rng *rand.Rand, n int) *matrix.Dense[float64] {
	c := matrix.NewSquare[float64](n)
	c.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return float64(4 * n)
		}
		return rng.Float64()*2 - 1
	})
	return c
}

func TestIGEPGaussianMatchesGEP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		for _, base := range []int{1, 4} {
			in := diagDominant(rng, n)
			want := in.Clone()
			RunGEP[float64](want, geUpdate, Gaussian{})
			got := in.Clone()
			RunIGEP[float64](got, geUpdate, Gaussian{}, WithBaseSize[float64](base))
			// Gaussian elimination is one of the instances the paper
			// proves exact for I-GEP: the same operations happen with
			// the same operand values, so results are bitwise equal.
			if !got.EqualFunc(want, func(a, b float64) bool { return a == b }) {
				t.Fatalf("n=%d base=%d: I-GEP Gaussian elimination differs from GEP", n, base)
			}
		}
	}
}

func TestIGEPLUMatchesGEP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		for _, base := range []int{1, 2, 8} {
			in := diagDominant(rng, n)
			want := in.Clone()
			RunGEP[float64](want, luUpdate, LU{})
			got := in.Clone()
			RunIGEP[float64](got, luUpdate, LU{}, WithBaseSize[float64](base))
			if !got.EqualFunc(want, func(a, b float64) bool { return a == b }) {
				t.Fatalf("n=%d base=%d: I-GEP LU differs from GEP", n, base)
			}
		}
	}
}

// TestIGEPPruningIrrelevant checks that disabling the line-1 pruning
// test changes nothing but work.
func TestIGEPPruningIrrelevant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := diagDominant(rng, 16)
	a := in.Clone()
	RunIGEP[float64](a, geUpdate, Gaussian{}, WithPrune[float64](true))
	b := in.Clone()
	RunIGEP[float64](b, geUpdate, Gaussian{}, WithPrune[float64](false))
	if !a.EqualFunc(b, func(x, y float64) bool { return x == y }) {
		t.Fatal("pruning changed the result")
	}
}

// TestCounterexample221 reproduces the paper's §2.2.1 example showing
// I-GEP is not correct for arbitrary (f, Σ_G): n=2, f = sum of inputs,
// Σ_G full, c = [[0,0],[0,1]]. G yields c[1][0] = 2 while I-GEP yields
// c[1][0] = 8 (the paper's c[2,1], 1-based). C-GEP must match G.
func TestCounterexample221(t *testing.T) {
	sum := UpdateFunc[int64](func(i, j, k int, x, u, v, w int64) int64 { return x + u + v + w })
	in := matrix.FromRows([][]int64{{0, 0}, {0, 1}})

	g := in.Clone()
	RunGEP[int64](g, sum, Full{})
	if g.At(1, 0) != 2 {
		t.Fatalf("G: c[1][0] = %d, want 2", g.At(1, 0))
	}

	f := in.Clone()
	// Base 1: the paper's divergence is a property of the pure F
	// recursion; at the automatic base size the 2×2 instance would run
	// as a single k-outer block and coincide with G.
	RunIGEP[int64](f, sum, Full{}, WithBaseSize[int64](1))
	if f.At(1, 0) != 8 {
		t.Fatalf("I-GEP: c[1][0] = %d, want 8 (the paper's divergence)", f.At(1, 0))
	}

	h := in.Clone()
	RunCGEP[int64](h, sum, Full{})
	if !matrix.Equal(g, h) {
		t.Fatalf("C-GEP differs from G on the counterexample:\nG:\n%v\nC-GEP:\n%v", g, h)
	}
	hc := in.Clone()
	RunCGEPCompact[int64](hc, sum, Full{})
	if !matrix.Equal(g, hc) {
		t.Fatalf("compact C-GEP differs from G on the counterexample")
	}
}

// TestABCDMatchesIGEP: the multithreaded recursion performs the same
// computation as F on correct instances, serially (a grain of n forks
// nothing) and in parallel.
func TestABCDMatchesIGEP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		in := floydWarshallInputInt(rng, n)
		want := in.Clone()
		RunIGEP[int64](want, fwMinInt, Full{})

		serial := in.Clone()
		RunIGEP[int64](serial, fwMinInt, Full{}, WithParallel[int64](n))
		requireEqual(t, want, serial, "serial ABCD")

		par := in.Clone()
		RunIGEP[int64](par, fwMinInt, Full{}, WithParallel[int64](4))
		requireEqual(t, want, par, "parallel ABCD")
	}
}

func TestABCDGaussianParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{8, 32} {
		in := diagDominant(rng, n)
		want := in.Clone()
		RunGEP[float64](want, geUpdate, Gaussian{})
		got := in.Clone()
		RunIGEP[float64](got, geUpdate, Gaussian{}, WithParallel[float64](2), WithBaseSize[float64](2))
		if !got.EqualFunc(want, func(a, b float64) bool { return a == b }) {
			t.Fatalf("n=%d: parallel ABCD Gaussian differs from GEP", n)
		}
	}
}

// TestRunDisjointMultiply: C += A·B through the all-D recursion
// matches the naive triple loop.
func TestRunDisjointMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mulUpdate := UpdateFunc[float64](func(i, j, k int, x, u, v, _ float64) float64 { return x + u*v })
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		a := randFloatMatrix(rng, n)
		b := randFloatMatrix(rng, n)

		want := matrix.NewSquare[float64](n)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				for j := 0; j < n; j++ {
					want.Set(i, j, want.At(i, j)+a.At(i, k)*b.At(k, j))
				}
			}
		}

		got := matrix.NewSquare[float64](n)
		RunDisjoint[float64](got, a, b, b, mulUpdate, Full{})
		// The D recursion applies each cell's k-updates in increasing
		// order, and FP addition order per cell matches the k-loop,
		// so results are bitwise equal to the ikj loop above.
		if !got.EqualFunc(want, func(x, y float64) bool { return x == y }) {
			t.Fatalf("n=%d: RunDisjoint multiply differs from naive", n)
		}

		par := matrix.NewSquare[float64](n)
		RunDisjoint[float64](par, a, b, b, mulUpdate, Full{}, WithParallel[float64](4))
		if !par.EqualFunc(want, func(x, y float64) bool { return x == y }) {
			t.Fatalf("n=%d: parallel RunDisjoint multiply differs from naive", n)
		}
	}
}

// TestWithParallelForks: both schedules give the same bits, so only
// the fork counter shows whether an entry honours WithParallel. On a
// dedicated 2-worker runtime at n = 64, base 8 and grain 8, each entry
// must fork with the option and never without it.
func TestWithParallelForks(t *testing.T) {
	rt := par.NewRuntime(2)
	defer rt.Close()
	const n = 64
	in := floydWarshallInputInt(rand.New(rand.NewSource(23)), n)
	for name, run := range map[string]func(opts ...Option[int64]){
		"RunIGEP": func(opts ...Option[int64]) { RunIGEP[int64](in.Clone(), fwMinInt, Full{}, opts...) },
		"RunCGEP": func(opts ...Option[int64]) { RunCGEP[int64](in.Clone(), fwMinInt, Full{}, opts...) },
		"RunDisjoint": func(opts ...Option[int64]) {
			RunDisjoint[int64](matrix.NewSquare[int64](n), in, in, in, fwMinInt, Full{}, opts...)
		},
	} {
		before := forkCount.Value()
		run(WithBaseSize[int64](8), WithRuntime[int64](rt))
		if d := forkCount.Value() - before; d != 0 {
			t.Fatalf("%s forked %d tasks without WithParallel", name, d)
		}
		run(WithBaseSize[int64](8), WithRuntime[int64](rt), WithParallel[int64](8))
		if forkCount.Value() == before {
			t.Fatalf("%s never forked with WithParallel(8)", name)
		}
	}
}

// TestIGEPZeroAndOne covers the degenerate sizes.
func TestIGEPZeroAndOne(t *testing.T) {
	empty := matrix.NewSquare[float64](0)
	RunIGEP[float64](empty, fwMin, Full{}) // must not panic

	one := matrix.FromRows([][]int64{{7}})
	sum := UpdateFunc[int64](func(i, j, k int, x, u, v, w int64) int64 { return x + u + v + w })
	RunIGEP[int64](one, sum, Full{})
	if one.At(0, 0) != 28 {
		t.Fatalf("n=1: got %d, want 28", one.At(0, 0))
	}
}

// TestIGEPNonPow2Panics documents the power-of-two requirement.
func TestIGEPNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two side")
		}
	}()
	m := matrix.NewSquare[float64](3)
	RunIGEP[float64](m, fwMin, Full{})
}

// TestEnginesOverTiledStorage: the generic engines run over any Grid;
// the bit-interleaved Tiled storage must give identical results to
// Dense.
func TestEnginesOverTiledStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 32
	in := floydWarshallInputInt(rng, n)
	want := in.Clone()
	RunIGEP[int64](want, fwMinInt, Full{}, WithBaseSize[int64](4))

	tiled := matrix.NewTiled[int64](n, 8)
	tiled.FromDense(in)
	RunIGEP[int64](tiled, fwMinInt, Full{}, WithBaseSize[int64](4))
	if !tiled.ToDense().EqualFunc(want, func(a, b int64) bool { return a == b }) {
		t.Fatal("I-GEP over Tiled storage differs from Dense")
	}

	tiled2 := matrix.NewTiled[int64](n, 4)
	tiled2.FromDense(in)
	g := in.Clone()
	RunGEP[int64](g, fwMinInt, Full{})
	RunCGEP[int64](tiled2, fwMinInt, Full{})
	if !tiled2.ToDense().EqualFunc(g, func(a, b int64) bool { return a == b }) {
		t.Fatal("C-GEP over Tiled storage differs from iterative")
	}
}
