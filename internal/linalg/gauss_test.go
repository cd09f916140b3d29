package linalg

import (
	"math"
	"math/rand"
	"testing"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/par"
)

// diagDominant is safely factorizable without pivoting.
func diagDominant(rng *rand.Rand, n int) *matrix.Dense[float64] {
	m := matrix.NewSquare[float64](n)
	m.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return float64(2*n) + rng.Float64()
		}
		return rng.Float64()*2 - 1
	})
	return m
}

// reassemble multiplies the packed LU factors back together.
func reassemble(lu *matrix.Dense[float64]) *matrix.Dense[float64] {
	n := lu.N()
	l := matrix.NewSquare[float64](n)
	u := matrix.NewSquare[float64](n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < n; j++ {
			if j < i {
				l.Set(i, j, lu.At(i, j))
			} else {
				u.Set(i, j, lu.At(i, j))
			}
		}
	}
	out := matrix.NewSquare[float64](n)
	MulNaive(out, l, u)
	return out
}

// TestLUFactorizationsReassemble: every variant's L·U must reproduce A.
func TestLUFactorizationsReassemble(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	variants := map[string]func(m *matrix.Dense[float64]){
		"gep":     LUGEP,
		"gepopt":  LUGEPOpt,
		"tiled4":  func(m *matrix.Dense[float64]) { LUTiled(m, 4) },
		"tiled16": func(m *matrix.Dense[float64]) { LUTiled(m, 16) },
		"igep1":   func(m *matrix.Dense[float64]) { LUIGEP(m, 1) },
		"igep8":   func(m *matrix.Dense[float64]) { LUIGEP(m, 8) },
		"igeppar": func(m *matrix.Dense[float64]) { LUIGEP(m, 4, core.WithParallel[float64](8)) },
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		a := diagDominant(rng, n)
		for name, factor := range variants {
			lu := a.Clone()
			factor(lu)
			back := reassemble(lu)
			tol := 1e-10 * float64(n)
			if d := MaxAbsDiff(a, back); d > tol {
				t.Fatalf("%s n=%d: |L·U - A| = %g > %g", name, n, d, tol)
			}
		}
	}
}

// TestLUVariantsAgree: all variants produce (numerically) the same
// packed factors.
func TestLUVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{8, 32, 64} {
		a := diagDominant(rng, n)
		ref := a.Clone()
		LUGEPOpt(ref)
		for name, factor := range map[string]func(m *matrix.Dense[float64]){
			"gep":   LUGEP,
			"tiled": func(m *matrix.Dense[float64]) { LUTiled(m, 8) },
			"igep":  func(m *matrix.Dense[float64]) { LUIGEP(m, 4) },
		} {
			lu := a.Clone()
			factor(lu)
			tol := 1e-10 * float64(n)
			if d := MaxAbsDiff(ref, lu); d > tol {
				t.Fatalf("%s n=%d: factors differ from reference by %g", name, n, d)
			}
		}
	}
}

// TestLUIGEPBitwiseMatchesGEP: the pure I-GEP recursion for LU
// (base 1) performs the identical operations on identical operand
// values as the iterative loop G (the paper's exactness for this
// instance), so it is bitwise equal to G run with the bare LUFactor
// Func.
func TestLUIGEPBitwiseMatchesGEP(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{4, 16, 64} {
		a := diagDominant(rng, n)
		ref := a.Clone()
		core.RunGEP[float64](ref, core.LUFactor[float64]{}.Func(), core.LU{})
		got := a.Clone()
		LUIGEP(got, 1)
		if !ref.EqualFunc(got, func(x, y float64) bool { return x == y }) {
			t.Fatalf("n=%d: LUIGEP(base=1) not bitwise equal to the G loop", n)
		}
	}
}

// TestLUParallelBitwiseMatchesSerial: goroutine execution, on the
// default runtime or on a runtime of its own, changes only scheduling,
// never values; and at a side other than a power of two LUIGEP gives
// the bits of the explicit identity pad, run and crop.
func TestLUParallelBitwiseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rt := par.NewRuntime(2)
	defer rt.Close()
	bitEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, n := range []int{64, 100} {
		a := diagDominant(rng, n)
		padded := matrix.PadPow2Diag(a, 0, 1)
		LUIGEP(padded, 8)
		want := matrix.Crop(padded, n)
		for name, opts := range map[string][]core.Option[float64]{
			"serial":   nil,
			"parallel": {core.WithParallel[float64](16)},
			"runtime":  {core.WithParallel[float64](16), core.WithRuntime[float64](rt)},
		} {
			got := a.Clone()
			LUIGEP(got, 8, opts...)
			if !want.EqualFunc(got, bitEq) {
				t.Fatalf("n=%d %s: LU not bitwise equal to the padded serial run", n, name)
			}
		}
	}
}

func TestSolveLU(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{1, 4, 16, 64} {
		a := diagDominant(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := MatVec(a, x)
		lu := a.Clone()
		LUIGEP(lu, 8)
		got := SolveLU(lu, b)
		if r := Residual(a, got, b); r > 1e-8 {
			t.Fatalf("n=%d: residual %g", n, r)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				t.Fatalf("n=%d: x[%d] = %g, want %g", n, i, got[i], x[i])
			}
		}
	}
}

func TestSolveLUValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong vector length")
		}
	}()
	SolveLU(matrix.NewSquare[float64](4), make([]float64, 3))
}

func TestGEFlops(t *testing.T) {
	if got := GEFlops(3); math.Abs(got-18) > 1e-12 {
		t.Fatalf("GEFlops(3) = %g, want 18", got)
	}
}

func TestResidualDetectsBadSolution(t *testing.T) {
	a := matrix.FromRows([][]float64{{2, 0}, {0, 2}})
	b := []float64{2, 2}
	if r := Residual(a, []float64{1, 1}, b); r != 0 {
		t.Fatalf("residual of exact solution = %g", r)
	}
	if r := Residual(a, []float64{1, 2}, b); r != 2 {
		t.Fatalf("residual of bad solution = %g, want 2", r)
	}
}

// TestLUHilbertLike stresses numerics on a harder (but still
// dominant-enough) matrix and cross-checks the solve path end to end.
func TestLUHilbertLike(t *testing.T) {
	n := 32
	a := matrix.NewSquare[float64](n)
	a.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return 3
		}
		return 1 / float64(i+j+2)
	})
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	b := MatVec(a, x)
	lu := a.Clone()
	LUTiled(lu, 8)
	got := SolveLU(lu, b)
	if r := Residual(a, got, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}
