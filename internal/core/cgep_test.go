package core

import (
	"math/rand"
	"testing"

	"gep/internal/matrix"
)

// C-GEP's contract is unconditional: for every update function f and
// every update set Σ_G, RunCGEP and RunCGEPCompact produce exactly the
// output of the iterative RunGEP. These tests sweep random explicit
// sets, the standard sets, all the exact-arithmetic test functions,
// several sizes and base-kernel sizes.

func TestCGEPMatchesGEPOnRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 4, 8, 16} {
		for _, p := range []float64{0.1, 0.5, 0.9, 1.0} {
			set := randExplicit(rng, n, p)
			for name, f := range testFuncs {
				in := randMatrix(t, rng, n)
				want := runOnClone(in, func(m *matrix.Dense[int64]) { RunGEP[int64](m, f, set) })

				got := runOnClone(in, func(m *matrix.Dense[int64]) { RunCGEP[int64](m, f, set) })
				requireEqual(t, want, got, "RunCGEP "+name)

				compact := runOnClone(in, func(m *matrix.Dense[int64]) { RunCGEPCompact[int64](m, f, set) })
				requireEqual(t, want, compact, "RunCGEPCompact "+name)
			}
		}
	}
}

func TestCGEPMatchesGEPOnStandardSets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := map[string]UpdateSet{
		"full":     Full{},
		"gaussian": Gaussian{},
		"lu":       LU{},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		for sname, set := range sets {
			for fname, f := range testFuncs {
				in := randMatrix(t, rng, n)
				want := runOnClone(in, func(m *matrix.Dense[int64]) { RunGEP[int64](m, f, set) })
				got := runOnClone(in, func(m *matrix.Dense[int64]) { RunCGEP[int64](m, f, set) })
				requireEqual(t, want, got, sname+"/"+fname)
				compact := runOnClone(in, func(m *matrix.Dense[int64]) { RunCGEPCompact[int64](m, f, set) })
				requireEqual(t, want, compact, "compact "+sname+"/"+fname)
			}
		}
	}
}

// TestCGEPBaseSizes: the iterative block kernel (base-size > 1) must
// preserve the exact-G semantics of C-GEP.
func TestCGEPBaseSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := testFuncs["linear"]
	for _, n := range []int{8, 16, 32} {
		set := randExplicit(rng, n, 0.6)
		in := randMatrix(t, rng, n)
		want := runOnClone(in, func(m *matrix.Dense[int64]) { RunGEP[int64](m, f, set) })
		for _, base := range []int{1, 2, 4, 8} {
			got := runOnClone(in, func(m *matrix.Dense[int64]) {
				RunCGEP[int64](m, f, set, WithBaseSize[int64](base))
			})
			requireEqual(t, want, got, "RunCGEP base")
			compact := runOnClone(in, func(m *matrix.Dense[int64]) {
				RunCGEPCompact[int64](m, f, set, WithBaseSize[int64](base))
			})
			requireEqual(t, want, compact, "RunCGEPCompact base")
		}
	}
}

// TestCGEPPredicateSet exercises the conservative Predicate set (no
// pruning information, scan-based τ).
func TestCGEPPredicateSet(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// A quirky but deterministic membership rule.
	pred := Predicate{Pred: func(i, j, k int) bool { return (i+2*j+3*k)%4 != 1 }}
	f := testFuncs["affine-indexed"]
	for _, n := range []int{4, 8, 16} {
		in := randMatrix(t, rng, n)
		want := runOnClone(in, func(m *matrix.Dense[int64]) { RunGEP[int64](m, f, pred) })
		got := runOnClone(in, func(m *matrix.Dense[int64]) { RunCGEP[int64](m, f, pred) })
		requireEqual(t, want, got, "predicate")
		compact := runOnClone(in, func(m *matrix.Dense[int64]) { RunCGEPCompact[int64](m, f, pred) })
		requireEqual(t, want, compact, "predicate compact")
	}
}

// TestCGEPAuxFactory verifies the custom aux allocator is honored.
func TestCGEPAuxFactory(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 8
	allocs := 0
	factory := func(r, c int) matrix.Rect[int64] {
		allocs++
		return matrix.New[int64](r, c)
	}
	in := randMatrix(t, rng, n)
	f := testFuncs["linear"]
	want := runOnClone(in, func(m *matrix.Dense[int64]) { RunGEP[int64](m, f, Full{}) })
	got := runOnClone(in, func(m *matrix.Dense[int64]) {
		RunCGEP[int64](m, f, Full{}, WithAuxFactory[int64](factory))
	})
	requireEqual(t, want, got, "aux factory")
	if allocs != 4 {
		t.Fatalf("aux factory called %d times, want 4", allocs)
	}
}

// TestIGEPDivergesSomewhere double-checks that the C-GEP tests are not
// vacuous: for the random-set regime above, plain I-GEP must disagree
// with G on at least one instance (otherwise C-GEP would be pointless).
func TestIGEPDivergesSomewhere(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	f := testFuncs["linear"]
	diverged := false
	for trial := 0; trial < 20 && !diverged; trial++ {
		n := 4
		set := randExplicit(rng, n, 0.8)
		in := randMatrix(t, rng, n)
		want := runOnClone(in, func(m *matrix.Dense[int64]) { RunGEP[int64](m, f, set) })
		// Base 1 is the pure recursion; the automatic flat-path base
		// (64) would run these tiny instances as one k-outer block,
		// which coincides with G and hides the divergence.
		got := runOnClone(in, func(m *matrix.Dense[int64]) { RunIGEP[int64](m, f, set, WithBaseSize[int64](1)) })
		if !matrix.Equal(want, got) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("I-GEP never diverged from GEP on random instances; C-GEP tests are vacuous")
	}
}

func TestTauScanFallback(t *testing.T) {
	// Predicate without TauFn uses the downward scan; compare against
	// the Explicit implementation.
	n := 8
	rng := rand.New(rand.NewSource(16))
	ex := randExplicit(rng, n, 0.4)
	pred := Predicate{Pred: ex.Contains}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for l := -1; l < n; l++ {
				if got, want := Tau(pred, i, j, l), ex.Tau(i, j, l); got != want {
					t.Fatalf("Tau(%d,%d,%d): scan %d, explicit %d", i, j, l, got, want)
				}
			}
		}
	}
}

// TestCGEPParallelMatchesGEP: the multithreaded C-GEP recursion (§3)
// must preserve the unconditional exactness guarantee, serially (a
// grain of n forks nothing) and on goroutines.
func TestCGEPParallelMatchesGEP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		set := randExplicit(rng, n, 0.7)
		for name, f := range testFuncs {
			in := randMatrix(t, rng, n)
			want := runOnClone(in, func(m *matrix.Dense[int64]) { RunGEP[int64](m, f, set) })
			serial := runOnClone(in, func(m *matrix.Dense[int64]) { RunCGEP[int64](m, f, set, WithParallel[int64](n)) })
			requireEqual(t, want, serial, "serial Figure 6 RunCGEP "+name)
			par := runOnClone(in, func(m *matrix.Dense[int64]) {
				RunCGEP[int64](m, f, set, WithParallel[int64](4), WithBaseSize[int64](2))
			})
			requireEqual(t, want, par, "parallel RunCGEP "+name)
		}
	}
}
