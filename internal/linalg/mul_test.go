package linalg

import (
	"math"
	"math/rand"
	"testing"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/par"
)

func randDense(rng *rand.Rand, n int) *matrix.Dense[float64] {
	m := matrix.NewSquare[float64](n)
	m.Apply(func(i, j int, _ float64) float64 { return rng.Float64()*2 - 1 })
	return m
}

// approxEqual compares within an accumulation-scaled tolerance: the
// variants associate the k-sum differently.
func approxEqual(t *testing.T, want, got *matrix.Dense[float64], n int, label string) {
	t.Helper()
	tol := 1e-12 * float64(n)
	if d := MaxAbsDiff(want, got); d > tol {
		t.Fatalf("%s: max diff %g > %g", label, d, tol)
	}
}

func TestMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		a, b := randDense(rng, n), randDense(rng, n)
		want := matrix.NewSquare[float64](n)
		MulNaive(want, a, b)

		got := matrix.NewSquare[float64](n)
		MulJKI(got, a, b)
		approxEqual(t, want, got, n, "MulJKI")

		for _, tile := range []int{1, 3, 8, 64} {
			got = matrix.NewSquare[float64](n)
			MulTiled(got, a, b, tile)
			approxEqual(t, want, got, n, "MulTiled")
		}

		for _, base := range []int{1, 2, 8, 64} {
			got = matrix.NewSquare[float64](n)
			MulFused(got, a, b, base)
			approxEqual(t, want, got, n, "MulFused")
		}

		got = matrix.NewSquare[float64](n)
		MulFused(got, a, b, 4, core.WithParallel[float64](8))
		approxEqual(t, want, got, n, "parallel MulFused")
	}
}

// TestMulParallelBitwiseMatchesSerial: the parallel recursion performs
// the identical operations in the identical per-cell order, so results
// are bitwise equal to the serial recursion, on the default runtime
// and on a runtime of its own.
func TestMulParallelBitwiseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 64
	a, b := randDense(rng, n), randDense(rng, n)
	serial := matrix.NewSquare[float64](n)
	MulFused(serial, a, b, 8)
	rt := par.NewRuntime(2)
	defer rt.Close()
	for name, opts := range map[string][]core.Option[float64]{
		"parallel": {core.WithParallel[float64](16)},
		"runtime":  {core.WithParallel[float64](16), core.WithRuntime[float64](rt)},
	} {
		got := matrix.NewSquare[float64](n)
		MulFused(got, a, b, 8, opts...)
		if !serial.EqualFunc(got, func(x, y float64) bool { return x == y }) {
			t.Fatalf("%s MulFused not bitwise equal to serial", name)
		}
	}
}

func TestMulAccumulates(t *testing.T) {
	// C += A·B: pre-existing C contents must be kept.
	n := 8
	rng := rand.New(rand.NewSource(22))
	a, b := randDense(rng, n), randDense(rng, n)
	c := matrix.NewSquare[float64](n)
	c.Fill(1)
	want := matrix.NewSquare[float64](n)
	want.Fill(1)
	MulNaive(want, a, b)
	MulFused(c, a, b, 2)
	approxEqual(t, want, c, n, "accumulation")
}

func TestMulTiledMorton(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{4, 16, 64} {
		for _, base := range []int{2, 4} {
			if base > n {
				continue
			}
			a, b := randDense(rng, n), randDense(rng, n)
			want := matrix.NewSquare[float64](n)
			MulNaive(want, a, b)

			at := matrix.NewTiled[float64](n, base)
			bt := matrix.NewTiled[float64](n, base)
			ct := matrix.NewTiled[float64](n, base)
			at.FromDense(a)
			bt.FromDense(b)
			MulTiledMorton(ct, at, bt, base)
			approxEqual(t, want, ct.ToDense(), n, "MulTiledMorton")
		}
	}
}

func TestMulIdentity(t *testing.T) {
	n := 16
	rng := rand.New(rand.NewSource(24))
	a := randDense(rng, n)
	id := matrix.NewSquare[float64](n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	c := matrix.NewSquare[float64](n)
	MulFused(c, a, id, 4)
	if !c.EqualFunc(a, func(x, y float64) bool { return x == y }) {
		t.Fatal("A·I != A")
	}
	c = matrix.NewSquare[float64](n)
	MulFused(c, id, a, 4)
	if !c.EqualFunc(a, func(x, y float64) bool { return x == y }) {
		t.Fatal("I·A != A")
	}
}

func TestMulFlops(t *testing.T) {
	if MulFlops(100) != 2e6 {
		t.Fatalf("MulFlops(100) = %g", MulFlops(100))
	}
}

// TestMulIGEPValidation: the I-GEP multiply (MulFused) rejects a
// non-power-of-two side.
func TestMulIGEPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-power-of-two")
		}
	}()
	m := matrix.NewSquare[float64](6)
	MulFused(m, m, m, 2)
}

func TestMulNumericalSanity(t *testing.T) {
	// 2x2 hand-computed product.
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	b := matrix.FromRows([][]float64{{5, 6}, {7, 8}})
	want := matrix.FromRows([][]float64{{19, 22}, {43, 50}})
	c := matrix.NewSquare[float64](2)
	MulNaive(c, a, b)
	if MaxAbsDiff(c, want) != 0 {
		t.Fatalf("naive 2x2 product wrong: %v", c)
	}
	c = matrix.NewSquare[float64](2)
	MulFused(c, a, b, 1)
	if MaxAbsDiff(c, want) != 0 {
		t.Fatalf("I-GEP 2x2 product wrong: %v", c)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	b := matrix.FromRows([][]float64{{1, 2.5}, {3, 4}})
	if d := MaxAbsDiff(a, b); math.Abs(d-0.5) > 1e-15 {
		t.Fatalf("MaxAbsDiff = %g, want 0.5", d)
	}
}
