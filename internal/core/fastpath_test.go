package core

import (
	"math/rand"
	"testing"

	"gep/internal/matrix"
)

// Differential tests for the flat-slice fast path (fastpath.go): every
// engine must produce bit-identical output whether the matrix is
// presented as a *matrix.Dense (fast path) or hidden behind an opaque
// Grid wrapper (generic interface path), for the standard Ranger sets
// and for sets with no fast-path hooks at all.

// opaqueGrid hides a *Dense behind a distinct Grid type so the
// matrix.Flat type assertion fails and the engines take the generic
// path.
type opaqueGrid[T any] struct{ d *matrix.Dense[T] }

func (g opaqueGrid[T]) N() int            { return g.d.N() }
func (g opaqueGrid[T]) At(i, j int) T     { return g.d.At(i, j) }
func (g opaqueGrid[T]) Set(i, j int, v T) { g.d.Set(i, j, v) }

// opaquePredicate strips every optional interface (Ranger, TauSet, an
// analytic Intersects) from a set, leaving bare Contains semantics.
type opaquePredicate struct{ s UpdateSet }

func (p opaquePredicate) Contains(i, j, k int) bool { return p.s.Contains(i, j, k) }
func (p opaquePredicate) Intersects(i1, i2, j1, j2, k1, k2 int) bool {
	return p.s.Intersects(i1, i2, j1, j2, k1, k2)
}

// diffSets are the update sets the differential tests cover: the three
// Ranger instances, a Predicate with interval sections but no JRange
// (fast grid path, per-element Contains), and a non-interval Predicate.
var diffSets = map[string]UpdateSet{
	"full":     Full{},
	"gaussian": Gaussian{},
	"lu":       LU{},
	"pred-interval": Predicate{
		Pred: func(i, j, k int) bool { return k < i && k < j },
	},
	"pred-scatter": Predicate{
		Pred: func(i, j, k int) bool { return (i+2*j+3*k)%3 != 0 },
	},
}

// engines under test: every generic engine with a flat fast path.
// base sizes probe both the pure recursion (leaves of side 1) and
// block kernels.
func diffEngines(base int) map[string]func(c matrix.Grid[int64], f UpdateFunc[int64], set UpdateSet) {
	return map[string]func(c matrix.Grid[int64], f UpdateFunc[int64], set UpdateSet){
		"gep": func(c matrix.Grid[int64], f UpdateFunc[int64], set UpdateSet) {
			RunGEP(c, f, set)
		},
		"igep": func(c matrix.Grid[int64], f UpdateFunc[int64], set UpdateSet) {
			RunIGEP(c, f, set, WithBaseSize[int64](base))
		},
		"cgep": func(c matrix.Grid[int64], f UpdateFunc[int64], set UpdateSet) {
			RunCGEP(c, f, set, WithBaseSize[int64](base))
		},
		"cgep-compact": func(c matrix.Grid[int64], f UpdateFunc[int64], set UpdateSet) {
			RunCGEPCompact(c, f, set, WithBaseSize[int64](base))
		},
		"cgep-parallel": func(c matrix.Grid[int64], f UpdateFunc[int64], set UpdateSet) {
			RunCGEP(c, f, set, WithBaseSize[int64](base), WithParallel[int64](8))
		},
		"abcd": func(c matrix.Grid[int64], f UpdateFunc[int64], set UpdateSet) {
			RunIGEP(c, f, set, WithBaseSize[int64](base), WithParallel[int64](8))
		},
	}
}

// TestFastPathDifferential checks fast == generic for every engine,
// set, update function, power-of-two size up to 64 and two base sizes.
func TestFastPathDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		src := randMatrix(t, rng, n)
		for setName, set := range diffSets {
			for fname, f := range testFuncs {
				for _, base := range []int{1, 16} {
					for engName, run := range diffEngines(base) {
						fast := src.Clone()
						run(fast, f, set)
						slow := src.Clone()
						run(opaqueGrid[int64]{slow}, f, set)
						label := engName + "/" + setName + "/" + fname
						if !matrix.Equal(fast, slow) {
							t.Fatalf("n=%d base=%d %s: fast path diverges from generic path\nfast:\n%v\ngeneric:\n%v",
								n, base, label, fast, slow)
						}
					}
				}
			}
		}
	}
}

// TestFastPathDifferentialRanger pins the Ranger hoisting specifically:
// the same standard set run with and without its JRange visible must
// agree on the fast grid path for every size 1..64 (RunGEP accepts any
// side length).
func TestFastPathDifferentialRanger(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	std := map[string]UpdateSet{"full": Full{}, "gaussian": Gaussian{}, "lu": LU{}}
	for n := 1; n <= 64; n++ {
		src := randMatrix(t, rng, n)
		for setName, set := range std {
			for fname, f := range testFuncs {
				ranged := src.Clone()
				RunGEP[int64](ranged, f, set)
				plain := src.Clone()
				RunGEP[int64](plain, f, opaquePredicate{set})
				if !matrix.Equal(ranged, plain) {
					t.Fatalf("n=%d %s/%s: Ranger kernel diverges from Contains kernel", n, setName, fname)
				}
			}
		}
	}
}

// TestJRangeMatchesContains verifies the Ranger contract itself: for
// the standard sets, JRange describes exactly the members Contains
// reports.
func TestJRangeMatchesContains(t *testing.T) {
	const n = 48
	for name, set := range map[string]Ranger{"full": Full{}, "gaussian": Gaussian{}, "lu": LU{}} {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				lo, hi := set.JRange(i, k)
				for j := 0; j < n; j++ {
					want := set.Contains(i, j, k)
					got := j >= lo && j < hi
					if want != got {
						t.Fatalf("%s: JRange(%d,%d)=[%d,%d) disagrees with Contains at j=%d (want %v)",
							name, i, k, lo, hi, j, want)
					}
				}
			}
		}
	}
}

// TestFastPathDisjoint covers RunDisjoint's flat kernel against the
// generic wrapper path.
func TestFastPathDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 8, 32} {
		x0 := randMatrix(t, rng, n)
		u := randMatrix(t, rng, n)
		v := randMatrix(t, rng, n)
		w := randMatrix(t, rng, n)
		for setName, set := range diffSets {
			for fname, f := range testFuncs {
				fast := x0.Clone()
				RunDisjoint[int64](fast, u, v, w, f, set, WithBaseSize[int64](8))
				slow := x0.Clone()
				RunDisjoint[int64](opaqueGrid[int64]{slow}, opaqueGrid[int64]{u}, opaqueGrid[int64]{v}, opaqueGrid[int64]{w},
					f, set, WithBaseSize[int64](8))
				if !matrix.Equal(fast, slow) {
					t.Fatalf("disjoint n=%d %s/%s: fast path diverges", n, setName, fname)
				}
			}
		}
	}
}

// TestFastPathStridedView checks that the fast path is taken and
// correct when the Dense is a view into a larger parent (stride >
// side), which is how padded and blocked matrices appear.
func TestFastPathStridedView(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const parentN, n = 96, 32
	parent := randMatrix(t, rng, parentN)
	view := parent.Sub(5, 9, n, n)
	ref := matrix.NewSquare[int64](n)
	ref.CopyFrom(view)
	for setName, set := range diffSets {
		for fname, f := range testFuncs {
			viewRun := parent.Clone().Sub(5, 9, n, n)
			RunIGEP[int64](viewRun, f, set, WithBaseSize[int64](8))

			want := ref.Clone()
			RunIGEP[int64](opaqueGrid[int64]{want}, f, set, WithBaseSize[int64](8))
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if viewRun.At(i, j) != want.At(i, j) {
						t.Fatalf("%s/%s: strided-view fast path diverges at (%d,%d)", setName, fname, i, j)
					}
				}
			}
		}
	}
}

// TestParallelEnginesBoundedPool exercises the runtime-backed
// parallel engines with aggressive grains (many more tasks than
// workers) and checks results against the serial reference; run under
// -race in CI.
func TestParallelEnginesBoundedPool(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 64
	src := randMatrix(t, rng, n)
	for setName, set := range diffSets {
		for fname, f := range testFuncs {
			want := runOnClone(src, func(m *matrix.Dense[int64]) { RunGEP[int64](m, f, set) })
			gotABCD := runOnClone(src, func(m *matrix.Dense[int64]) {
				RunIGEP[int64](m, f, set, WithBaseSize[int64](4), WithParallel[int64](4))
			})
			gotCGEP := runOnClone(src, func(m *matrix.Dense[int64]) {
				RunCGEP[int64](m, f, set, WithBaseSize[int64](4), WithParallel[int64](4))
			})
			// I-GEP (and hence ABCD) is only guaranteed to equal G on
			// instances where I-GEP is legal; C-GEP always is. Compare
			// ABCD against serial ABCD (a grain of n forks nothing)
			// instead, C-GEP against G.
			wantABCD := runOnClone(src, func(m *matrix.Dense[int64]) {
				RunIGEP[int64](m, f, set, WithBaseSize[int64](4), WithParallel[int64](n))
			})
			requireEqual(t, wantABCD, gotABCD, "abcd-parallel/"+setName+"/"+fname)
			requireEqual(t, want, gotCGEP, "cgep-parallel/"+setName+"/"+fname)
		}
	}
}
