package linalg

import (
	"fmt"
	"math/rand"
	"testing"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/par"
)

// Differential tests for the engine entry points (fused.go) against
// the iterative GEP reference semantics: the loop G run with the op's
// bare Func.

func TestMulFusedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		a, b := randDense(rng, n), randDense(rng, n)
		want := matrix.NewSquare[float64](n)
		MulNaive(want, a, b)
		for _, base := range []int{1, 4, 64} {
			got := matrix.NewSquare[float64](n)
			MulFused(got, a, b, base)
			approxEqual(t, want, got, n, "MulFused")
		}
	}
}

// TestLUFusedBitwiseMatchesGEP: LUIGEP runs the fused LU op, which
// keeps the division in the j == k update exactly as written GEP
// performs it and sends D blocks to MulSub's kernel, so at every base
// size it is bitwise equal to the G loop with the bare LUFactor Func
// (not to LUGEPOpt, which hoists a reciprocal and rounds differently).
func TestLUFusedBitwiseMatchesGEP(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{4, 16, 64} {
		a := diagDominant(rng, n)
		want := a.Clone()
		core.RunGEP[float64](want, core.LUFactor[float64]{}.Func(), core.LU{})
		for _, base := range []int{1, 8, 64} {
			got := a.Clone()
			LUIGEP(got, base)
			if !want.EqualFunc(got, func(x, y float64) bool { return x == y }) {
				t.Fatalf("n=%d base=%d: LUIGEP not bitwise equal to the G loop", n, base)
			}
		}
	}
}

// TestGaussFusedMatchesIterative: the oracle is the iterative GEP
// loop nest with the same op — the reference semantics every engine
// must preserve.
func TestGaussFusedMatchesIterative(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, n := range []int{4, 16, 64} {
		a := diagDominant(rng, n)
		want := a.Clone()
		core.RunGEP[float64](want, core.GaussElim[float64]{}.Func(), core.Gaussian{})
		for _, base := range []int{1, 8, 64} {
			got := a.Clone()
			GaussFused(got, base)
			if !want.EqualFunc(got, func(x, y float64) bool { return x == y }) {
				t.Fatalf("n=%d base=%d: GaussFused differs from iterative GEP", n, base)
			}
		}
	}
}

// TestFusedParallelMatchesSerial: with WithParallel the fused entry
// points run the same update sequence through the work-stealing
// runtime (internal/par), so at every worker count, and on a runtime
// of its own, the result must be bitwise equal to the serial run.
func TestFusedParallelMatchesSerial(t *testing.T) {
	defer par.ResetWorkers()
	rng := rand.New(rand.NewSource(53))
	const n, base, grain = 64, 8, 16
	a, b := randDense(rng, n), randDense(rng, n)
	lu := diagDominant(rng, n)

	wantMul := matrix.NewSquare[float64](n)
	MulFused(wantMul, a, b, base)
	wantLU := lu.Clone()
	LUIGEP(wantLU, base)
	wantGauss := lu.Clone()
	GaussFused(wantGauss, base)

	eq := func(x, y float64) bool { return x == y }
	check := func(label string, opts ...core.Option[float64]) {
		gotMul := matrix.NewSquare[float64](n)
		MulFused(gotMul, a, b, base, opts...)
		if !wantMul.EqualFunc(gotMul, eq) {
			t.Fatalf("%s: parallel MulFused differs from serial", label)
		}
		gotLU := lu.Clone()
		LUIGEP(gotLU, base, opts...)
		if !wantLU.EqualFunc(gotLU, eq) {
			t.Fatalf("%s: parallel LUIGEP differs from serial", label)
		}
		gotGauss := lu.Clone()
		GaussFused(gotGauss, base, opts...)
		if !wantGauss.EqualFunc(gotGauss, eq) {
			t.Fatalf("%s: parallel GaussFused differs from serial", label)
		}
	}
	for _, p := range []int{1, 2, 4} {
		par.SetWorkers(p)
		check(fmt.Sprintf("p=%d", p), core.WithParallel[float64](grain))
	}
	rt := par.NewRuntime(2)
	defer rt.Close()
	check("own runtime", core.WithParallel[float64](grain), core.WithRuntime[float64](rt))
}
