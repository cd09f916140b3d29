package linalg

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/par"
)

// opaqueBoolGrid hides a Dense[bool] behind a distinct Grid type so
// the engines take the generic per-cell path — the oracle the packed
// GF(2) eliminator is compared against.
type opaqueBoolGrid struct{ d *matrix.Dense[bool] }

func (g opaqueBoolGrid) N() int               { return g.d.N() }
func (g opaqueBoolGrid) At(i, j int) bool     { return g.d.At(i, j) }
func (g opaqueBoolGrid) Set(i, j int, v bool) { g.d.Set(i, j, v) }

func randBitsSquare(rng *rand.Rand, n, density int) (*matrix.Bits, *matrix.Dense[bool]) {
	d := matrix.NewSquare[bool](n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(100) < density {
				d.Set(i, j, true)
			}
		}
	}
	return matrix.PackBool(d), d
}

// TestGaussGF2FusedMatchesGeneric: the packed eliminator must be
// bit-identical to the generic engine with the same recursion shape on
// any input (validity of the elimination is irrelevant to the
// engine-equality contract).
func TestGaussGF2FusedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, n := range []int{1, 4, 32, 128} {
		for _, base := range []int{1, 16, 512} {
			b, d := randBitsSquare(rng, n, 45)
			want := d.Clone()
			core.RunIGEP[bool](opaqueBoolGrid{want}, core.GF2Elim{}, core.Gaussian{},
				core.WithBaseSize[bool](base))
			for _, tw := range []int{0, 4, 8} {
				got := b.Clone()
				GaussGF2Fused(got, core.WithBaseSize[bool](base), core.WithTableWidth[bool](tw))
				if !matrix.Equal(want, matrix.UnpackBool(got)) {
					t.Fatalf("n=%d base=%d tw=%d: GaussGF2Fused diverges from generic", n, base, tw)
				}
			}
		}
	}
}

// TestGaussGF2FusedParallelMatchesSerial at p ∈ {1,2,4} and on a
// runtime of its own.
func TestGaussGF2FusedParallelMatchesSerial(t *testing.T) {
	defer par.ResetWorkers()
	rng := rand.New(rand.NewSource(92))
	b, _ := randBitsSquare(rng, 256, 45)
	want := b.Clone()
	GaussGF2Fused(want)
	check := func(label string, opts ...core.Option[bool]) {
		got := b.Clone()
		GaussGF2Fused(got, opts...)
		if !matrix.EqualBits(want, got) {
			t.Fatalf("%s: parallel GF(2) elimination differs from serial", label)
		}
	}
	for _, p := range []int{1, 2, 4} {
		par.SetWorkers(p)
		check(fmt.Sprintf("p=%d", p), core.WithParallel[bool](64))
	}
	rt := par.NewRuntime(2)
	defer rt.Close()
	check("own runtime", core.WithParallel[bool](64), core.WithRuntime[bool](rt))
}

// TestGaussGF2FusedUpperTriangle: on an LU-factorable input (built as
// unit-lower L times upper U with unit diagonal, so every leading
// principal minor is 1), elimination must reproduce U on and above the
// diagonal — the semantic (not just differential) correctness check.
func TestGaussGF2FusedUpperTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const n = 64
	l := matrix.NewSquare[bool](n)
	u := matrix.NewSquare[bool](n)
	for i := 0; i < n; i++ {
		l.Set(i, i, true)
		u.Set(i, i, true)
		for j := 0; j < i; j++ {
			l.Set(i, j, rng.Intn(2) == 1)
		}
		for j := i + 1; j < n; j++ {
			u.Set(i, j, rng.Intn(2) == 1)
		}
	}
	a := matrix.NewBitsSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := false
			for k := 0; k <= min(i, j); k++ {
				acc = acc != (l.At(i, k) && u.At(k, j))
			}
			a.Set(i, j, acc)
		}
	}
	GaussGF2Fused(a)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if a.At(i, j) != u.At(i, j) {
				t.Fatalf("eliminated cell (%d,%d) = %v, want U's %v", i, j, a.At(i, j), u.At(i, j))
			}
		}
	}
}

// TestSolveGF2Invertible: build an invertible A = P·L·U, pick x*, form
// b = A·x*; the solver must return exactly x* (unique solution).
func TestSolveGF2Invertible(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, n := range []int{1, 2, 17, 64, 100} {
		a := randInvertibleGF2(rng, n)
		want := make([]bool, n)
		for i := range want {
			want[i] = rng.Intn(2) == 1
		}
		b := MulVecGF2(a, want)
		x, err := SolveGF2(a, b)
		if err != nil {
			t.Fatalf("n=%d: invertible system reported inconsistent: %v", n, err)
		}
		for i := range want {
			if x[i] != want[i] {
				t.Fatalf("n=%d: solution differs at %d", n, i)
			}
		}
	}
}

// TestSolveGF2SingularConsistentAndNot: a rank-deficient system must
// solve when b is in the column space and report ok=false otherwise.
func TestSolveGF2SingularConsistentAndNot(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	const n = 40
	a := randInvertibleGF2(rng, n)
	// Make row n-1 the XOR of rows 0 and 1: rank drops to n-1.
	r0, _, _ := a.RowSpan(0, 0, n)
	r1, _, _ := a.RowSpan(1, 0, n)
	for j := 0; j < n; j++ {
		a.Set(n-1, j, r0[j>>6]>>(uint(j)&63)&1 != r1[j>>6]>>(uint(j)&63)&1)
	}
	if got := RankGF2(a); got != n-1 {
		t.Fatalf("rank = %d, want %d", got, n-1)
	}
	xs := make([]bool, n)
	for i := range xs {
		xs[i] = rng.Intn(2) == 1
	}
	b := MulVecGF2(a, xs) // consistent by construction
	x, err := SolveGF2(a, b)
	if err != nil {
		t.Fatalf("consistent singular system reported inconsistent: %v", err)
	}
	back := MulVecGF2(a, x)
	for i := range b {
		if back[i] != b[i] {
			t.Fatalf("A·x differs from b at row %d", i)
		}
	}
	// Break consistency: b must satisfy b[n-1] = b[0] ⊕ b[1]; flip it.
	b[n-1] = !b[n-1]
	if _, err := SolveGF2(a, b); err == nil {
		t.Fatal("inconsistent system reported solvable")
	} else if !errors.Is(err, ErrSingular) {
		t.Fatalf("inconsistency error %v does not wrap ErrSingular", err)
	}
}

// TestRankGF2KnownRank builds matrices of known rank (echelon seed,
// rank-preserving row ops) and checks RankGF2.
func TestRankGF2KnownRank(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	const n = 50
	for _, r := range []int{0, 1, 7, 25, 50} {
		a := matrix.NewBitsSquare(n)
		// r echelon rows with distinct leading columns.
		lead := rng.Perm(n)[:r]
		for row := 0; row < r; row++ {
			a.Set(row, lead[row], true)
			for j := lead[row] + 1; j < n; j++ {
				if rng.Intn(2) == 1 {
					a.Set(row, j, true)
				}
			}
		}
		// Rank-preserving shuffle: add random rows into others, swap.
		for trial := 0; trial < 4*n; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			switch rng.Intn(2) {
			case 0:
				a.SwapRows(i, j)
			case 1:
				wi, fm, lm := a.RowSpan(i, 0, n)
				wj, _, _ := a.RowSpan(j, 0, n)
				nw := len(wi)
				if nw == 1 {
					wi[0] ^= wj[0] & fm & lm
					continue
				}
				wi[0] ^= wj[0] & fm
				for w := 1; w < nw-1; w++ {
					wi[w] ^= wj[w]
				}
				wi[nw-1] ^= wj[nw-1] & lm
			}
		}
		if got := RankGF2(a); got != r {
			t.Fatalf("rank = %d, want %d", got, r)
		}
	}
}

// TestMulVecGF2UnalignedView checks the per-cell fallback against the
// word path.
func TestMulVecGF2UnalignedView(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	parent, _ := randBitsSquare(rng, 80, 50)
	v := parent.Sub(0, 5, 70, 70)
	x := make([]bool, 70)
	for i := range x {
		x[i] = rng.Intn(2) == 1
	}
	got := MulVecGF2(v, x) // unaligned: per-cell path
	aligned := v.Clone()   // aligned copy: word path
	want := MulVecGF2(aligned, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecGF2 unaligned diverges at row %d", i)
		}
	}
}

// randInvertibleGF2 returns P·L·U with unit-diagonal L and U: an
// invertible matrix by construction.
func randInvertibleGF2(rng *rand.Rand, n int) *matrix.Bits {
	a := matrix.NewBitsSquare(n)
	l := matrix.NewSquare[bool](n)
	u := matrix.NewSquare[bool](n)
	for i := 0; i < n; i++ {
		l.Set(i, i, true)
		u.Set(i, i, true)
		for j := 0; j < i; j++ {
			l.Set(i, j, rng.Intn(2) == 1)
		}
		for j := i + 1; j < n; j++ {
			u.Set(i, j, rng.Intn(2) == 1)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := false
			for k := 0; k <= min(i, j); k++ {
				acc = acc != (l.At(i, k) && u.At(k, j))
			}
			a.Set(i, j, acc)
		}
	}
	for s := 0; s < n; s++ {
		a.SwapRows(s, s+rng.Intn(n-s))
	}
	return a
}
