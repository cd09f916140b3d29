package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gep/internal/matrix"
)

// gatherTile copies the s×s quadrant at (r0, c0) out of m into a fresh
// row-major buffer.
func gatherTile(m *matrix.Dense[float64], r0, c0, s int) []float64 {
	out := make([]float64, s*s)
	for i := 0; i < s; i++ {
		copy(out[i*s:(i+1)*s], m.Row(r0 + i)[c0:c0+s])
	}
	return out
}

// scatterTile writes the buffer back into the quadrant.
func scatterTile(m *matrix.Dense[float64], buf []float64, r0, c0, s int) {
	for i := 0; i < s; i++ {
		copy(m.Row(r0 + i)[c0:c0+s], buf[i*s:(i+1)*s])
	}
}

// blockTiles assembles the four operand tiles of block (i0,j0,k0,s)
// with the aliasing TileKernel's contract requires: coinciding
// quadrants share one buffer.
func blockTiles(m *matrix.Dense[float64], i0, j0, k0, s int) (x, u, v, w []float64) {
	x = gatherTile(m, i0, j0, s)
	u = x
	if j0 != k0 {
		u = gatherTile(m, i0, k0, s)
	}
	v = x
	if i0 != k0 {
		v = gatherTile(m, k0, j0, s)
	} else if j0 != k0 {
		// i0 == k0, j0 != k0: V coincides with X only when i0 == k0,
		// which holds here, so v stays x. (Branch kept for clarity.)
		v = x
	}
	switch {
	case i0 == k0 && j0 == k0:
		w = x
	case i0 == k0:
		w = u // W = (k0,k0) = (i0,k0) = U
	case j0 == k0:
		w = v // W = (k0,k0) = (k0,j0) = V
	default:
		w = gatherTile(m, k0, k0, s)
	}
	return x, u, v, w
}

// runTileBlock executes TileKernel for one block over a copy of m and
// returns the resulting matrix.
func runTileBlock(m *matrix.Dense[float64], op Op[float64], set UpdateSet, i0, j0, k0, s int) *matrix.Dense[float64] {
	got := m.Clone()
	x, u, v, w := blockTiles(got, i0, j0, k0, s)
	TileKernel(op, set, x, u, v, w, i0, j0, k0, s)
	// Scatter every distinct buffer back.
	scatterTile(got, x, i0, j0, s)
	if j0 != k0 {
		scatterTile(got, u, i0, k0, s)
	}
	if i0 != k0 {
		scatterTile(got, v, k0, j0, s)
	}
	if i0 != k0 && j0 != k0 {
		scatterTile(got, w, k0, k0, s)
	}
	return got
}

func bitsEqual(t *testing.T, label string, want, got *matrix.Dense[float64]) {
	t.Helper()
	cellsEqual(t, label, want, got, sameBits)
}

// cellsEqual fails the test at the first cell where same rejects the
// pair.
func cellsEqual(t *testing.T, label string, want, got *matrix.Dense[float64], same func(a, b float64) bool) {
	t.Helper()
	n := want.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !same(want.At(i, j), got.At(i, j)) {
				t.Fatalf("%s: cell (%d,%d) = %x, want %x", label, i, j,
					math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)))
			}
		}
	}
}

// TestTileKernelMatchesGeneric: for every alias shape a base-case
// block can take (diagonal, i-aligned, j-aligned, fully disjoint),
// every built-in op × set pairing produces bit-identical results to
// the generic Grid kernel on the same block. Sides 7, 16 and 64 cross
// the pivot groups of the whole-row paths, and the hostile input
// (NaN, ±Inf, ±0, subnormals, negative cells and a negative diagonal
// in the second half) reaches their fallbacks; on it alone NaN
// compares as a class.
func TestTileKernelMatchesGeneric(t *testing.T) {
	ops := []struct {
		name string
		op   Op[float64]
	}{
		{"MinPlus", MinPlus[float64]{}},
		{"MulAdd", MulAdd[float64]{}},
		{"GaussElim", GaussElim[float64]{}},
		{"LUFactor", LUFactor[float64]{}},
		{"BareFunc", UpdateFunc[float64](func(i, j, k int, x, u, v, w float64) float64 {
			return x + 0.5*u - 0.25*v + 0.125*w
		})},
	}
	sets := []struct {
		name string
		set  UpdateSet
	}{
		{"Full", Full{}},
		{"Gaussian", Gaussian{}},
		{"LU", LU{}},
		{"NoRanger", Predicate{Pred: LU{}.Contains}}, // hides JRange: generic tier
	}
	for _, s := range []int{4, 7, 16, 64} {
		n := 2 * s
		blocks := []struct {
			name       string
			i0, j0, k0 int
		}{
			{"diagonal", 0, 0, 0},
			{"i-aligned", 0, s, 0},      // i0 == k0, j0 != k0: X=V, U=W
			{"j-aligned", s, 0, 0},      // j0 == k0, i0 != k0: X=U, V=W
			{"disjoint", s, s, 0},       // all four distinct
			{"reverse-k", 0, 0, s},      // k-range after the block
			{"i-aligned-late", s, 0, s}, // X=V left of the k-range
			{"j-aligned-late", 0, s, s}, // X=U above the k-range
		}
		rng := rand.New(rand.NewSource(11))
		dominant := matrix.NewSquare[float64](n)
		// Diagonally dominant keeps GaussElim/LUFactor divisions finite.
		dominant.Apply(func(i, j int, _ float64) float64 {
			if i == j {
				return 16 + rng.Float64()
			}
			return rng.NormFloat64()
		})
		inputs := []struct {
			name string
			in   *matrix.Dense[float64]
			same func(a, b float64) bool
		}{{"dominant", dominant, sameBits}, {"hostile", hostileInput(rng, n), sameValue}}

		for _, input := range inputs {
			in := input.in
			for _, o := range ops {
				for _, st := range sets {
					for _, b := range blocks {
						label := fmt.Sprintf("s=%d/%s/%s/%s/%s", s, input.name, o.name, st.name, b.name)
						want := in.Clone()
						igepKernel[float64](want, o.op.Func(), st.set, b.i0, b.j0, b.k0, s)
						fused, flat := kernelFusedCount.Value(), kernelFlatCount.Value()
						got := runTileBlock(in, o.op, st.set, b.i0, b.j0, b.k0, s)
						cellsEqual(t, label, want, got, input.same)
						// Every shape of a built-in op over a Ranger set takes
						// the op's fused kernel, never the flat loop.
						_, kern := o.op.(Kerneler[float64])
						if _, ranged := st.set.(Ranger); kern && ranged &&
							(kernelFusedCount.Value() == fused || kernelFlatCount.Value() != flat) {
							t.Fatalf("%s: tile ran the flat loop, want the fused kernel", label)
						}
					}
				}
			}
		}
	}
}

// TestIGEPBlocksMatchesRecursion: the enumeration visits exactly the
// blocks the real recursion visits, in the same order, so a block
// count or position taken from it names the block the recursion runs.
func TestIGEPBlocksMatchesRecursion(t *testing.T) {
	for _, tc := range []struct {
		n, base int
		set     UpdateSet
	}{
		{16, 4, Full{}},
		{16, 4, Gaussian{}},
		{16, 2, LU{}},
		{8, 8, Full{}},
		{8, 1, Full{}},
	} {
		want := IGEPBlocks(tc.n, tc.base, tc.set, true)
		var got []Block
		m := matrix.NewSquare[float64](tc.n)
		hook := func(i0, j0, k0, s int) bool {
			got = append(got, Block{I: i0, J: j0, K: k0, S: s})
			return true
		}
		RunIGEP[float64](m, MinPlus[float64]{}, tc.set,
			WithBaseSize[float64](tc.base), WithBaseCase[float64](hook))
		if len(got) != len(want) {
			t.Fatalf("n=%d base=%d %T: %d blocks visited, enumeration has %d",
				tc.n, tc.base, tc.set, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d base=%d %T: block %d visited %+v, enumerated %+v",
					tc.n, tc.base, tc.set, i, got[i], want[i])
			}
		}
	}
}

// TestWithBaseCaseFallThrough: a hook returning false leaves the
// built-in kernels in charge, bit-identically.
func TestWithBaseCaseFallThrough(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(5))
	in := matrix.NewSquare[float64](n)
	in.Apply(func(i, j int, _ float64) float64 { return float64(rng.Intn(100)) })

	want := in.Clone()
	RunIGEP[float64](want, MinPlus[float64]{}, Full{}, WithBaseSize[float64](4))

	calls := 0
	got := in.Clone()
	RunIGEP[float64](got, MinPlus[float64]{}, Full{},
		WithBaseSize[float64](4),
		WithBaseCase[float64](func(i0, j0, k0, s int) bool { calls++; return false }))
	if calls == 0 {
		t.Fatal("hook never called")
	}
	bitsEqual(t, "fall-through", want, got)
}

// TestTileKernelAllocatesNothing runs one TileKernel call per float64
// fused op on a D block (the covered-block kernels) and on a diagonal
// block (the split row loop) and requires zero allocations: the
// float64 rows reach the AVX2 tier through pointer assertions, where
// boxing a slice, any(xr).([]float64), would allocate on every row.
func TestTileKernelAllocatesNothing(t *testing.T) {
	const s = 64
	rng := rand.New(rand.NewSource(5))
	x, u, v, w := make([]float64, s*s), make([]float64, s*s), make([]float64, s*s), make([]float64, s*s)
	for i := range x {
		x[i], u[i], v[i], w[i] = rng.Float64(), rng.Float64(), rng.Float64(), 1+rng.Float64()
	}
	for _, c := range []struct {
		name string
		op   Op[float64]
		set  UpdateSet
	}{
		{"MinPlus", MinPlus[float64]{}, Full{}},
		{"MulAdd", MulAdd[float64]{}, Full{}},
		{"MulSub", MulSub[float64]{}, Full{}},
		{"GaussElim", GaussElim[float64]{}, Gaussian{}},
		{"LUFactor", LUFactor[float64]{}, LU{}},
	} {
		if a := testing.AllocsPerRun(5, func() { TileKernel(c.op, c.set, x, u, v, w, 128, 192, 64, s) }); a != 0 {
			t.Errorf("%s D block: %v allocations per call, want 0", c.name, a)
		}
		if a := testing.AllocsPerRun(5, func() { TileKernel(c.op, c.set, w, w, w, w, 64, 64, 64, s) }); a != 0 {
			t.Errorf("%s diagonal block: %v allocations per call, want 0", c.name, a)
		}
	}
}
