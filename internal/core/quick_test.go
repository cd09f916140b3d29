package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gep/internal/matrix"
)

// Property-based tests (testing/quick) over randomly generated GEP
// instances. Each property quantifies over the instance space: update
// set density, matrix contents, sizes and base-kernel sizes all vary.

// instance decodes quick's random seeds into a GEP instance.
type instance struct {
	n    int
	set  *Explicit
	in   *matrix.Dense[int64]
	base int
}

func decodeInstance(seed int64, sizeExp uint8, density uint8, baseExp uint8) instance {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << (sizeExp % 5) // 1..16
	p := 0.15 + 0.8*float64(density%100)/100
	set := NewExplicit(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if rng.Float64() < p {
					set.Add(i, j, k)
				}
			}
		}
	}
	in := matrix.NewSquare[int64](n)
	in.Apply(func(i, j int, _ int64) int64 { return rng.Int63n(2000) - 1000 })
	base := 1 << (baseExp % 4) // 1..8
	return instance{n: n, set: set, in: in, base: base}
}

var quickF UpdateFunc[int64] = func(i, j, k int, x, u, v, w int64) int64 {
	return 3*x - 2*u + v + 7*w + int64(k)
}

// Property: C-GEP (both variants, any base size) equals iterative GEP
// on every instance.
func TestQuickCGEPEqualsGEP(t *testing.T) {
	prop := func(seed int64, sizeExp, density, baseExp uint8) bool {
		inst := decodeInstance(seed, sizeExp, density, baseExp)
		want := inst.in.Clone()
		RunGEP[int64](want, quickF, inst.set)
		got := inst.in.Clone()
		RunCGEP[int64](got, quickF, inst.set, WithBaseSize[int64](inst.base))
		if !matrix.Equal(want, got) {
			return false
		}
		compact := inst.in.Clone()
		RunCGEPCompact[int64](compact, quickF, inst.set, WithBaseSize[int64](inst.base))
		return matrix.Equal(want, compact)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: I-GEP applies exactly |Σ_G ∩ [0,n)³| updates, regardless
// of instance (Theorem 2.1(a,b) in counting form).
func TestQuickIGEPUpdateCount(t *testing.T) {
	prop := func(seed int64, sizeExp, density uint8) bool {
		inst := decodeInstance(seed, sizeExp, density, 0)
		count := 0
		counting := UpdateFunc[int64](func(i, j, k int, x, u, v, w int64) int64 {
			count++
			return quickF(i, j, k, x, u, v, w)
		})
		c := inst.in.Clone()
		RunIGEP[int64](c, counting, inst.set)
		return count == inst.set.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: I-GEP and the ABCD recursion (run serially: a grain of n
// forks nothing) produce identical outputs on every instance (they
// refine the same partial order with the same read semantics), even
// when I-GEP itself diverges from G.
func TestQuickABCDEqualsIGEP(t *testing.T) {
	prop := func(seed int64, sizeExp, density, baseExp uint8) bool {
		inst := decodeInstance(seed, sizeExp, density, baseExp)
		a := inst.in.Clone()
		RunIGEP[int64](a, quickF, inst.set, WithBaseSize[int64](inst.base))
		b := inst.in.Clone()
		RunIGEP[int64](b, quickF, inst.set, WithBaseSize[int64](inst.base), WithParallel[int64](inst.n))
		return matrix.Equal(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: pruning never changes results, for I-GEP and C-GEP alike.
func TestQuickPruningNeutral(t *testing.T) {
	prop := func(seed int64, sizeExp, density uint8) bool {
		inst := decodeInstance(seed, sizeExp, density, 1)
		a := inst.in.Clone()
		RunIGEP[int64](a, quickF, inst.set, WithPrune[int64](true))
		b := inst.in.Clone()
		RunIGEP[int64](b, quickF, inst.set, WithPrune[int64](false))
		if !matrix.Equal(a, b) {
			return false
		}
		c := inst.in.Clone()
		RunCGEP[int64](c, quickF, inst.set, WithPrune[int64](true))
		d := inst.in.Clone()
		RunCGEP[int64](d, quickF, inst.set, WithPrune[int64](false))
		return matrix.Equal(c, d)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: cells with no updates in Σ_G are never written by any
// engine (frame condition).
func TestQuickUntouchedCellsPreserved(t *testing.T) {
	prop := func(seed int64, sizeExp, density uint8) bool {
		inst := decodeInstance(seed, sizeExp, density, 0)
		touched := make(map[[2]int]bool)
		for _, tr := range inst.set.Triples() {
			touched[[2]int{tr[0], tr[1]}] = true
		}
		for _, run := range []func(m *matrix.Dense[int64]){
			func(m *matrix.Dense[int64]) { RunGEP[int64](m, quickF, inst.set) },
			func(m *matrix.Dense[int64]) { RunIGEP[int64](m, quickF, inst.set) },
			func(m *matrix.Dense[int64]) { RunCGEP[int64](m, quickF, inst.set) },
			func(m *matrix.Dense[int64]) { RunCGEPCompact[int64](m, quickF, inst.set) },
		} {
			m := inst.in.Clone()
			run(m)
			for i := 0; i < inst.n; i++ {
				for j := 0; j < inst.n; j++ {
					if !touched[[2]int{i, j}] && m.At(i, j) != inst.in.At(i, j) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: τ consistency — Tau(i,j,l) is the maximum set member <= l,
// for all the analytic sets, cross-checked against the generic scan.
func TestQuickTauConsistency(t *testing.T) {
	sets := []TauSet{Full{}, Gaussian{}, LU{}}
	prop := func(i8, j8, l8, which uint8) bool {
		n := 32
		i, j, l := int(i8)%n, int(j8)%n, int(l8)%n
		s := sets[int(which)%len(sets)]
		got := s.Tau(i, j, l)
		// Generic downward scan using only Contains.
		want := -1
		for k := l; k >= 0; k-- {
			if s.Contains(i, j, k) {
				want = k
				break
			}
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersects agrees with brute-force box membership for the
// analytic sets.
func TestQuickIntersectsConsistency(t *testing.T) {
	sets := []UpdateSet{Full{}, Gaussian{}, LU{}}
	prop := func(a, b, c, d, e, f, which uint8) bool {
		n := 12
		i1, i2 := int(a)%n, int(b)%n
		if i1 > i2 {
			i1, i2 = i2, i1
		}
		j1, j2 := int(c)%n, int(d)%n
		if j1 > j2 {
			j1, j2 = j2, j1
		}
		k1, k2 := int(e)%n, int(f)%n
		if k1 > k2 {
			k1, k2 = k2, k1
		}
		s := sets[int(which)%len(sets)]
		want := false
		for i := i1; i <= i2 && !want; i++ {
			for j := j1; j <= j2 && !want; j++ {
				for k := k1; k <= k2 && !want; k++ {
					want = s.Contains(i, j, k)
				}
			}
		}
		return s.Intersects(i1, i2, j1, j2, k1, k2) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
