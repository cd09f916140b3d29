package trace

import (
	"math/rand"
	"slices"
	"testing"

	"gep/internal/core"
	"gep/internal/matrix"
)

func randMat(rng *rand.Rand, n int) *matrix.Dense[int64] {
	m := matrix.NewSquare[int64](n)
	m.Apply(func(i, j int, _ int64) int64 { return rng.Int63n(1000) - 500 })
	return m
}

func randSet(rng *rand.Rand, n int, p float64) *core.Explicit {
	s := core.NewExplicit(n)
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

var linF core.UpdateFunc[int64] = func(i, j, k int, x, u, v, w int64) int64 {
	return x + 2*u + 3*v + 5*w
}

// TestTheoremsHoldForIGEP: the central theory validation. For random
// update sets and inputs, an instrumented I-GEP run must satisfy
// Theorems 2.1 and 2.2 exactly.
func TestTheoremsHoldForIGEP(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, n := range []int{1, 2, 4, 8, 16} {
		for _, p := range []float64{0.2, 0.7, 1.0} {
			set := randSet(rng, n, p)
			in := randMat(rng, n)
			count, err := VerifyIGEP(in, linF, set)
			if err != nil {
				t.Fatalf("n=%d p=%.1f: %v", n, p, err)
			}
			if count != set.Len() {
				t.Fatalf("n=%d p=%.1f: performed %d updates, Σ_G has %d", n, p, count, set.Len())
			}
		}
	}
}

// TestTheoremsHoldForStandardSets covers the analytic sets.
func TestTheoremsHoldForStandardSets(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	sets := map[string]core.UpdateSet{
		"full":     core.Full{},
		"gaussian": core.Gaussian{},
		"lu":       core.LU{},
	}
	for name, set := range sets {
		for _, n := range []int{4, 8, 16} {
			in := randMat(rng, n)
			if _, err := VerifyIGEP(in, linF, set); err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
		}
	}
}

// TestTableOneGColumn validates the G column of Table 1 on live
// iterative runs.
func TestTableOneGColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, n := range []int{2, 4, 8, 16} {
		set := randSet(rng, n, 0.6)
		in := randMat(rng, n)
		if _, err := VerifyGEP(in, linF, set); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestTheorem22DetectsViolation: feeding G's trace to the F-state
// checker must fail for some instance (F and G read genuinely
// different states — that is the whole point of §2.2.1), proving the
// checker has teeth.
func TestTheorem22DetectsViolation(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	violated := false
	for trial := 0; trial < 10 && !violated; trial++ {
		n := 4
		in := randMat(rng, n)
		var rec Recorder
		c := in.Clone()
		core.RunGEP[int64](c, rec.Wrap(linF), core.Full{})
		if err := CheckTheorem22(rec.Updates(), in); err != nil {
			violated = true
		}
	}
	if !violated {
		t.Fatal("CheckTheorem22 accepted G traces; checker is vacuous")
	}
}

// TestTheorem21DetectsViolations feeds corrupted traces to the checker.
func TestTheorem21DetectsViolations(t *testing.T) {
	n := 4
	set := core.Full{}
	in := matrix.NewSquare[int64](n)
	var rec Recorder
	c := in.Clone()
	core.RunIGEP[int64](c, rec.Wrap(linF), set)
	good := rec.Updates()

	// Duplicate an update → (b) must fail.
	dup := append(append([]Update{}, good...), good[0])
	if err := CheckTheorem21(dup, set, n); err == nil {
		t.Fatal("duplicated update not detected")
	}

	// Drop an update → (a) must fail.
	if err := CheckTheorem21(good[1:], set, n); err == nil {
		t.Fatal("missing update not detected")
	}

	// Swap two same-cell updates → (c) must fail.
	swapped := append([]Update{}, good...)
	ia, ib := -1, -1
	for x := range swapped {
		for y := x + 1; y < len(swapped); y++ {
			if swapped[x].I == swapped[y].I && swapped[x].J == swapped[y].J {
				ia, ib = x, y
				break
			}
		}
		if ia >= 0 {
			break
		}
	}
	if ia < 0 {
		t.Fatal("no same-cell pair found")
	}
	swapped[ia], swapped[ib] = swapped[ib], swapped[ia]
	if err := CheckTheorem21(swapped, set, n); err == nil {
		t.Fatal("out-of-order same-cell updates not detected")
	}

	// An update outside Σ_G → (a) must fail.
	gauss := core.Gaussian{}
	bad := []Update{{I: 0, J: 0, K: 0}}
	if err := CheckTheorem21(bad, gauss, 1); err == nil {
		t.Fatal("foreign update not detected")
	}
}

// TestRecorderConcurrent ensures tracing a parallel ABCD run records
// every update exactly once.
func TestRecorderConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	n := 32
	in := randMat(rng, n)
	var rec Recorder
	c := in.Clone()
	core.RunIGEP[int64](c, rec.Wrap(func(i, j, k int, x, u, v, w int64) int64 {
		if d := u + v; d < x {
			return d
		}
		return x
	}), core.Full{}, core.WithParallel[int64](4))
	if got, want := rec.Len(), n*n*n; got != want {
		t.Fatalf("recorded %d updates, want %d", got, want)
	}
	if err := CheckTheorem21(rec.Updates(), core.Full{}, n); err != nil {
		// (c) uses observation order, which for a correct parallel run
		// is still per-cell monotone because same-cell updates are
		// ordered by the recursion's sequential dependencies.
		t.Fatalf("parallel trace violates theorem 2.1: %v", err)
	}
}

// TestTheorem22HoldsForABCD: the multithreaded recursion (run
// serially: a grain of n forks nothing) is another linear extension of
// I-GEP's partial order, so Theorem 2.2's state characterization must
// hold for its traces too.
func TestTheorem22HoldsForABCD(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for _, n := range []int{4, 8, 16} {
		set := randSet(rng, n, 0.6)
		in := randMat(rng, n)
		var rec Recorder
		c := in.Clone()
		// Base 1: Theorem 2.2 describes the pure recursion's reads.
		core.RunIGEP[int64](c, rec.Wrap(linF), set, core.WithBaseSize[int64](1), core.WithParallel[int64](n))
		ups := rec.Updates()
		if err := CheckTheorem21(ups, set, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := CheckTheorem22(ups, in); err != nil {
			t.Fatalf("n=%d: ABCD trace violates theorem 2.2: %v", n, err)
		}
	}
}

// TestIGEPAndABCDSameFinalStateOnArbitraryInstances: even where both
// diverge from G, F and the ABCD refinement (run serially: a grain of
// n forks nothing) agree with each other.
func TestIGEPAndABCDSameFinalStateOnArbitraryInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for trial := 0; trial < 10; trial++ {
		n := 8
		set := randSet(rng, n, 0.8)
		in := randMat(rng, n)
		// Base 1: at the automatic base size the 8×8 matrix is one
		// base-case block under either schedule.
		a := in.Clone()
		core.RunIGEP[int64](a, linF, set, core.WithBaseSize[int64](1))
		b := in.Clone()
		core.RunIGEP[int64](b, linF, set, core.WithBaseSize[int64](1), core.WithParallel[int64](n))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a.At(i, j) != b.At(i, j) {
					t.Fatalf("trial %d: F and ABCD diverge at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

// TestCGEPFollowsIGEPRecursion: C-GEP is I-GEP's recursion with another
// base case, so both visit the updates ⟨i,j,k⟩ in one order at every
// base size. Serially that is F's order, for RunCGEPCompact too (base
// < n throughout, so its root split is F's first level). Under
// WithParallel(n), whose grain forks nothing, it is Figure 6's. At
// n = 16, base 1 the two orders differ, so both schedules really run.
func TestCGEPFollowsIGEPRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, n := range []int{8, 16} {
		set := randSet(rng, n, 0.6)
		in := randMat(rng, n)
		for _, base := range []int{1, 4} {
			order := func(run func(c *matrix.Dense[int64], f core.UpdateFunc[int64])) [][3]int {
				var rec Recorder
				run(in.Clone(), rec.Wrap(linF))
				var ijk [][3]int
				for _, u := range rec.Updates() {
					ijk = append(ijk, [3]int{u.I, u.J, u.K})
				}
				return ijk
			}
			bs, fig6 := core.WithBaseSize[int64](base), core.WithParallel[int64](n)
			f := order(func(c *matrix.Dense[int64], f core.UpdateFunc[int64]) { core.RunIGEP(c, f, set, bs) })
			h := order(func(c *matrix.Dense[int64], f core.UpdateFunc[int64]) { core.RunCGEP(c, f, set, bs) })
			if !slices.Equal(f, h) {
				t.Fatalf("n=%d base=%d: serial RunCGEP visits the updates in another order than RunIGEP", n, base)
			}
			hc := order(func(c *matrix.Dense[int64], f core.UpdateFunc[int64]) { core.RunCGEPCompact(c, f, set, bs) })
			if !slices.Equal(f, hc) {
				t.Fatalf("n=%d base=%d: RunCGEPCompact visits the updates in another order than RunIGEP", n, base)
			}
			a := order(func(c *matrix.Dense[int64], f core.UpdateFunc[int64]) { core.RunIGEP(c, f, set, bs, fig6) })
			ha := order(func(c *matrix.Dense[int64], f core.UpdateFunc[int64]) { core.RunCGEP(c, f, set, bs, fig6) })
			if !slices.Equal(a, ha) {
				t.Fatalf("n=%d base=%d: RunCGEP under WithParallel(n) visits the updates in another order than RunIGEP", n, base)
			}
			if n == 16 && base == 1 && slices.Equal(f, a) {
				t.Fatalf("n=16 base=1: Figure 6's order equals F's, so the schedules are not both running")
			}
		}
	}
}
