package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gep/internal/matrix"
)

// sameBits is the equality the differential tests assert: identical
// bit patterns. Plain == would reject NaN == NaN, and the muladd/Full
// instances overflow to NaN by design (the magnitude squares at every
// k), which is exactly where order-of-operation bugs would hide.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// sameValue is sameBits with NaN compared as a class: NaN payloads are
// outside the bit contract (DESIGN.md §10), and which one survives when
// two meet depends on the operand order the compiler picks for an add.
func sameValue(a, b float64) bool {
	return sameBits(a, b) || a != a && b != b
}

// hostileInput returns an n×n matrix for the bit tests of the whole-row
// paths: cells of either sign and mixed magnitude, with about one in six
// of the first n/2 rows drawn from NaN, ±Inf, ±0, subnormals and
// ±MaxFloat64. The diagonal is large, positive in the first half and
// negative in the second, so Floyd-Warshall's B blocks take both the
// row path and its negative-diagonal fallback, and the divisions of LU
// and Gaussian elimination keep most cells finite. The last n/2 rows
// hold no special: a −Inf reaching a Floyd-Warshall row as u sets the
// whole row to −Inf, so the blocks over those rows keep the finite
// values that tell one update order from another.
func hostileInput(rng *rand.Rand, n int) *matrix.Dense[float64] {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -0x1p-1040, math.MaxFloat64, -math.MaxFloat64,
	}
	m := matrix.NewSquare[float64](n)
	m.Apply(func(i, j int, _ float64) float64 {
		switch {
		case i == j && 2*i < n:
			return float64(4*n) + rng.Float64()
		case i == j:
			return -float64(4*n) - rng.Float64()
		case 2*i < n && rng.Intn(6) == 0:
			return specials[rng.Intn(len(specials))]
		}
		return (rng.Float64()*2 - 1) * math.Ldexp(1, rng.Intn(20)-10)
	})
	return m
}

// Differential tests for the fused block kernels (ops.go): every
// engine must produce bit-identical output whether the op is passed as
// the fused struct (block kernels engage on flat storage) or as its
// bare Func (flat path with the per-element indirect call) or run over
// an opaque wrapper grid (fully generic path). The fused kernels exist
// purely for speed; any observable difference is a bug.

// fusedCase pairs a fused op with the update sets it is used with and
// an input generator whose matrices keep the arithmetic exact or
// well-ordered (diagonally dominant for the division-based ops).
type fusedFloatCase struct {
	name string
	op   Op[float64]
	sets map[string]UpdateSet
	gen  func(rng *rand.Rand, n int) *matrix.Dense[float64]
}

func fusedFloatCases() []fusedFloatCase {
	uniform := func(rng *rand.Rand, n int) *matrix.Dense[float64] {
		m := matrix.NewSquare[float64](n)
		m.Apply(func(i, j int, _ float64) float64 { return rng.Float64()*2 - 1 })
		return m
	}
	return []fusedFloatCase{
		{
			name: "minplus",
			op:   MinPlus[float64]{},
			sets: map[string]UpdateSet{"full": Full{}, "gaussian": Gaussian{}, "lu": LU{}},
			gen:  floydWarshallInput,
		},
		{
			name: "muladd",
			op:   MulAdd[float64]{},
			sets: map[string]UpdateSet{"full": Full{}, "gaussian": Gaussian{}, "lu": LU{}},
			gen:  uniform,
		},
		{
			name: "gauss",
			op:   GaussElim[float64]{},
			sets: map[string]UpdateSet{"gaussian": Gaussian{}},
			gen:  diagDominant,
		},
		{
			name: "lu",
			op:   LUFactor[float64]{},
			sets: map[string]UpdateSet{"lu": LU{}},
			gen:  diagDominant,
		},
	}
}

// fusedEngines are the engines with a fused dispatch rung.
func fusedEngines(base int) map[string]func(c matrix.Grid[float64], op Op[float64], set UpdateSet) {
	return map[string]func(c matrix.Grid[float64], op Op[float64], set UpdateSet){
		"gep": func(c matrix.Grid[float64], op Op[float64], set UpdateSet) {
			RunGEP(c, op, set)
		},
		"igep": func(c matrix.Grid[float64], op Op[float64], set UpdateSet) {
			RunIGEP(c, op, set, WithBaseSize[float64](base))
		},
		"abcd": func(c matrix.Grid[float64], op Op[float64], set UpdateSet) {
			RunIGEP(c, op, set, WithBaseSize[float64](base), WithParallel[float64](c.N()))
		},
		"abcd-par": func(c matrix.Grid[float64], op Op[float64], set UpdateSet) {
			RunIGEP(c, op, set, WithBaseSize[float64](base), WithParallel[float64](8))
		},
	}
}

// TestFusedKernelsBitIdentical is the headline differential: fused op
// == bare Func == opaque generic grid, bit for bit, for every op, set,
// engine, size and base size.
func TestFusedKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range fusedFloatCases() {
		f := tc.op.Func() // bare Func: flat path without fused kernels
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
			in := tc.gen(rng, n)
			for setName, set := range tc.sets {
				for _, base := range []int{1, 2, 4, 8, 64} {
					for engName, run := range fusedEngines(base) {
						want := in.Clone()
						run(want, f, set)
						got := in.Clone()
						before := kernelFusedCount.Value()
						run(got, tc.op, set)
						if !got.EqualFunc(want, sameBits) {
							t.Fatalf("%s/%s/%s n=%d base=%d: fused differs from flat",
								tc.name, engName, setName, n, base)
						}
						if n >= 4 && base >= 4 && kernelFusedCount.Value() == before {
							t.Fatalf("%s/%s/%s n=%d base=%d: fused kernel never dispatched",
								tc.name, engName, setName, n, base)
						}
						opaque := in.Clone()
						run(opaqueGrid[float64]{opaque}, tc.op, set)
						if !opaque.EqualFunc(want, sameBits) {
							t.Fatalf("%s/%s/%s n=%d base=%d: generic grid differs",
								tc.name, engName, setName, n, base)
						}
					}
				}
			}
		}
	}
}

// TestFusedDisjointBitIdentical covers the RunDisjoint rung: the
// covered-block row kernels and the split row loop against the
// bare-Func flat path. RunDisjoint's blocks with xi == k0 or xj == k0
// have coinciding coordinates over disjoint operands, so the ops whose
// kernels branch on j == k (LUFactor) or divide by w (GaussElim) are
// checked there too.
func TestFusedDisjointBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ops := map[string]Op[float64]{
		"muladd":    MulAdd[float64]{},
		"minplus":   MinPlus[float64]{},
		"mulsub":    MulSub[float64]{},
		"gausselim": GaussElim[float64]{},
		"lufactor":  LUFactor[float64]{},
	}
	for opName, op := range ops {
		f := op.Func()
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
			a, b := randFloatMatrix(rng, n), randFloatMatrix(rng, n)
			for _, base := range []int{1, 2, 4, 8, 64} {
				want := matrix.NewSquare[float64](n)
				RunDisjoint[float64](want, a, b, b, f, Full{}, WithBaseSize[float64](base))
				got := matrix.NewSquare[float64](n)
				before := kernelFusedCount.Value()
				RunDisjoint[float64](got, a, b, b, op, Full{}, WithBaseSize[float64](base))
				if !got.EqualFunc(want, sameBits) {
					t.Fatalf("%s n=%d base=%d: fused disjoint differs from flat", opName, n, base)
				}
				if n >= 4 && base >= 4 && kernelFusedCount.Value() == before {
					t.Fatalf("%s n=%d base=%d: disjoint fused kernel never dispatched", opName, n, base)
				}
				// Gaussian restricts j per k; exercises the uncovered-
				// block fallback inside the disjoint kernels.
				wantG := matrix.NewSquare[float64](n)
				RunDisjoint[float64](wantG, a, b, b, f, Gaussian{}, WithBaseSize[float64](base))
				gotG := matrix.NewSquare[float64](n)
				RunDisjoint[float64](gotG, a, b, b, op, Gaussian{}, WithBaseSize[float64](base))
				if !gotG.EqualFunc(wantG, sameBits) {
					t.Fatalf("%s n=%d base=%d: fused disjoint (gaussian) differs", opName, n, base)
				}
				// LU: member intervals start at the pivot column, so
				// blocks with xj == k0 hold j == k updates.
				wantL := matrix.NewSquare[float64](n)
				RunDisjoint[float64](wantL, a, b, b, f, LU{}, WithBaseSize[float64](base))
				gotL := matrix.NewSquare[float64](n)
				RunDisjoint[float64](gotL, a, b, b, op, LU{}, WithBaseSize[float64](base))
				if !gotL.EqualFunc(wantL, sameBits) {
					t.Fatalf("%s n=%d base=%d: fused disjoint (lu) differs", opName, n, base)
				}
			}
		}
	}
}

// TestFusedClosureBitIdentical covers the boolean-semiring op.
func TestFusedClosureBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		in := matrix.NewSquare[bool](n)
		in.Apply(func(i, j int, _ bool) bool { return i == j || rng.Float64() < 0.15 })
		f := Closure{}.Func()
		for _, base := range []int{1, 4, 64} {
			want := in.Clone()
			RunIGEP[bool](want, f, Full{}, WithBaseSize[bool](base))
			got := in.Clone()
			RunIGEP[bool](got, Closure{}, Full{}, WithBaseSize[bool](base))
			if !got.EqualFunc(want, func(a, b bool) bool { return a == b }) {
				t.Fatalf("n=%d base=%d: fused closure differs from flat", n, base)
			}
		}
	}
}

// TestFusedGF2ElimBitIdentical covers GF2Elim's flat []bool kernel,
// whose XOR is not idempotent, so a stale selector after the pivot
// update would change cells: fused == bare Func == opaque Grid, for
// every engine, set and base size, including the sets whose intervals
// hold the pivot column.
func TestFusedGF2ElimBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	same := func(a, b bool) bool { return a == b }
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		in := matrix.NewSquare[bool](n)
		in.Apply(func(i, j int, _ bool) bool { return rng.Intn(100) < 40 })
		for setName, set := range map[string]UpdateSet{"full": Full{}, "gaussian": Gaussian{}, "lu": LU{}} {
			for _, base := range []int{1, 4, 8} {
				for engName, run := range map[string]func(c matrix.Grid[bool], op Op[bool]){
					"gep":  func(c matrix.Grid[bool], op Op[bool]) { RunGEP(c, op, set) },
					"igep": func(c matrix.Grid[bool], op Op[bool]) { RunIGEP(c, op, set, WithBaseSize[bool](base)) },
					"abcd": func(c matrix.Grid[bool], op Op[bool]) {
						RunIGEP(c, op, set, WithBaseSize[bool](base), WithParallel[bool](n))
					},
				} {
					want := in.Clone()
					run(opaqueGrid[bool]{want}, GF2Elim{})
					bare := in.Clone()
					run(bare, GF2Elim{}.Func())
					got := in.Clone()
					before := kernelFusedCount.Value()
					run(got, GF2Elim{})
					if !bare.EqualFunc(want, same) || !got.EqualFunc(want, same) {
						t.Fatalf("%s/%s n=%d base=%d: flat or fused GF(2) kernel differs from the Grid loop", engName, setName, n, base)
					}
					if n >= 4 && kernelFusedCount.Value() == before {
						t.Fatalf("%s/%s n=%d base=%d: fused GF(2) kernel never dispatched", engName, setName, n, base)
					}
				}
			}
		}
	}
}

// TestFusedIntOps: the fused kernels are generic over the element
// type; int64 min-plus and multiply-accumulate are exact, so equality
// is trivial to interpret.
func TestFusedIntOps(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{4, 16, 64} {
		in := floydWarshallInputInt(rng, n)
		want := in.Clone()
		RunIGEP[int64](want, MinPlus[int64]{}.Func(), Full{}, WithBaseSize[int64](8))
		got := in.Clone()
		RunIGEP[int64](got, MinPlus[int64]{}, Full{}, WithBaseSize[int64](8))
		requireEqual(t, want, got, "fused int64 min-plus")

		mm := randMatrix(t, rng, n)
		wantM := mm.Clone()
		RunGEP[int64](wantM, MulAdd[int64]{}.Func(), LU{})
		gotM := mm.Clone()
		RunGEP[int64](gotM, MulAdd[int64]{}, LU{})
		requireEqual(t, wantM, gotM, "fused int64 mul-add")
	}

	// An integer w+x can wrap below x: with W[k,k] = 1 and MaxInt64
	// cells, row k's own step changes it, so MinPlus's B block must not
	// take its two row passes.
	const s = 4
	w, x := make([]int64, s*s), make([]int64, s*s)
	for i := range x {
		w[i], x[i] = 5, math.MaxInt64
		if i%(s+1) == 0 {
			w[i] = 1
		}
	}
	want := append([]int64(nil), x...)
	TileKernel[int64](MinPlus[int64]{}.Func(), Full{}, want, w, want, w, 0, s, 0, s)
	TileKernel[int64](MinPlus[int64]{}, Full{}, x, w, x, w, 0, s, 0, s)
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("int64 min-plus B block with wrapping cells: cell %d = %d, want %d", i, x[i], want[i])
		}
	}
}

// FuzzFusedVsGeneric drives the fused dispatch with fuzzer-chosen
// size, base size, op and set, asserting bit-identity against the
// bare-Func path on every instance: once on the op's own input, bit for
// bit, and once on hostileInput, NaN compared as a class.
func FuzzFusedVsGeneric(fz *testing.F) {
	fz.Add(uint8(2), uint8(1), uint8(0), uint8(0), int64(1))
	fz.Add(uint8(3), uint8(6), uint8(1), uint8(1), int64(2))
	fz.Add(uint8(5), uint8(2), uint8(2), uint8(1), int64(3))
	fz.Add(uint8(6), uint8(0), uint8(3), uint8(2), int64(4))
	fz.Fuzz(func(t *testing.T, sizeExp, baseExp, opSel, setSel uint8, seed int64) {
		n := 1 << (int(sizeExp) % 7)    // 1..64
		base := 1 << (int(baseExp) % 7) // 1..64
		rng := rand.New(rand.NewSource(seed))
		cases := fusedFloatCases()
		tc := cases[int(opSel)%len(cases)]
		setNames := make([]string, 0, len(tc.sets))
		for name := range tc.sets {
			setNames = append(setNames, name)
		}
		sort.Strings(setNames) // map order is random; select deterministically
		set := tc.sets[setNames[int(setSel)%len(setNames)]]
		for _, c := range []struct {
			in   *matrix.Dense[float64]
			same func(a, b float64) bool
		}{{tc.gen(rng, n), sameBits}, {hostileInput(rng, n), sameValue}} {
			want := c.in.Clone()
			RunIGEP[float64](want, tc.op.Func(), set, WithBaseSize[float64](base))
			got := c.in.Clone()
			RunIGEP[float64](got, tc.op, set, WithBaseSize[float64](base))
			if !got.EqualFunc(want, c.same) {
				t.Fatalf("op=%s n=%d base=%d: fused diverged from flat", tc.name, n, base)
			}
		}
	})
}

// TestProductsRoundedTwice pins the two-rounding contract of ops.go on
// every architecture: with x = 1+2⁻²⁶ and u = v = 1+2⁻²⁷ the exact
// product is 1+2⁻²⁶+2⁻⁵⁴, so x − round(u·v) is exactly 0, while a fused
// multiply-subtract (one rounding) gives −2⁻⁵⁴ (and x + u·v with
// x = −(1+2⁻²⁶) gives +2⁻⁵⁴). Each op runs through its Func and through
// every fused kernel the engines dispatch: the in-place block kernels
// (RunGEP, RunIGEP), the D-block disjoint kernels (RunIGEP with base 4
// at n = 8), the covered-block row kernels with and without a k tail
// (RunDisjoint, DisjointBlock at sides 5 and 6) and the rank-1 loop of a
// partially covered block (RunDisjoint over the Gaussian set).
func TestProductsRoundedTwice(t *testing.T) {
	const x, u = 1 + 0x1p-26, 1 + 0x1p-27
	funcs := map[string]struct {
		f    UpdateFunc[float64]
		x, w float64
	}{
		"muladd":    {MulAdd[float64]{}.Func(), -x, 1},
		"mulsub":    {MulSub[float64]{}.Func(), x, 1},
		"gausselim": {GaussElim[float64]{}.Func(), x, 1},
		"lufactor":  {LUFactor[float64]{}.Func(), x, 1},
	}
	for name, c := range funcs {
		if got := c.f(1, 2, 0, c.x, u, u, c.w); got != 0 {
			t.Errorf("%s Func: x ± u·v = %g, want exactly 0", name, got)
		}
	}

	// In place, n = 8: c[0][0] = 1, row 0 holds v, column 0 holds u,
	// the other cells x (off the diagonal) or x+1 (on it). The k = 0
	// updates leave every off-diagonal cell of rows and columns 1..7 at
	// x − round(u·v) = 0 and the diagonal at 1; later k change nothing.
	const n = 8
	inPlace := func(xv, diag float64) *matrix.Dense[float64] {
		m := matrix.NewSquare[float64](n)
		m.Apply(func(i, j int, _ float64) float64 {
			switch {
			case i == 0 && j == 0:
				return 1
			case i == 0:
				return u
			case j == 0:
				return u
			case i == j:
				return diag
			}
			return xv
		})
		return m
	}
	check := func(label string, m *matrix.Dense[float64], want func(i, j int) float64) {
		t.Helper()
		for i := 0; i < m.N(); i++ {
			for j := 0; j < m.N(); j++ {
				if got := m.At(i, j); !sameBits(got, want(i, j)) {
					t.Fatalf("%s: c[%d][%d] = %g, want %g", label, i, j, got, want(i, j))
				}
			}
		}
	}
	wantInPlace := func(init *matrix.Dense[float64]) func(i, j int) float64 {
		return func(i, j int) float64 {
			switch {
			case i == 0 || j == 0:
				return init.At(i, j)
			case i == j:
				return 1
			}
			return 0
		}
	}
	for name, c := range map[string]struct {
		op       Op[float64]
		set      UpdateSet
		xv, diag float64
	}{
		"muladd":    {MulAdd[float64]{}, Gaussian{}, -x, 1 - x},
		"gausselim": {GaussElim[float64]{}, Gaussian{}, x, x + 1},
		"lufactor":  {LUFactor[float64]{}, LU{}, x, x + 1},
	} {
		init := inPlace(c.xv, c.diag)
		for label, run := range map[string]func(m *matrix.Dense[float64]){
			"gep":     func(m *matrix.Dense[float64]) { RunGEP(m, c.op, c.set) },
			"igep-b8": func(m *matrix.Dense[float64]) { RunIGEP(m, c.op, c.set, WithBaseSize[float64](8)) },
			"igep-b4": func(m *matrix.Dense[float64]) { RunIGEP(m, c.op, c.set, WithBaseSize[float64](4)) },
			"abcd-b4": func(m *matrix.Dense[float64]) {
				RunIGEP(m, c.op, c.set, WithBaseSize[float64](4), WithParallel[float64](m.N()))
			},
			"bare-func": func(m *matrix.Dense[float64]) { RunGEP(m, c.op.Func(), c.set) },
		} {
			m := init.Clone()
			run(m)
			check(name+"/"+label, m, wantInPlace(init))
		}
	}

	// Disjoint: X = ∓x everywhere, U holds u at one column per row (the
	// column cycles through every unrolled slot and the tail) and V is
	// u everywhere, so each cell is ∓x ± round(u·v) = 0 plus products
	// with zero.
	for name, c := range map[string]struct {
		op Op[float64]
		xv float64
	}{
		"muladd": {MulAdd[float64]{}, -x},
		"mulsub": {MulSub[float64]{}, x},
	} {
		for _, s := range []int{5, 6, 8} {
			xm, um, vm := matrix.NewSquare[float64](s), matrix.NewSquare[float64](s), matrix.NewSquare[float64](s)
			xm.Fill(c.xv)
			vm.Fill(u)
			for i := 0; i < s; i++ {
				um.Set(i, (3*i+1)%s, u)
			}
			zero := func(int, int) float64 { return 0 }
			m := xm.Clone()
			DisjointBlock[float64](c.op, Full{}, m.Data(), s, um.Data(), s, vm.Data(), s, vm.Data(), s, s)
			check(fmt.Sprintf("%s/disjoint-block-s%d", name, s), m, zero)
			if s != 8 {
				continue
			}
			for _, base := range []int{4, 8} {
				m := xm.Clone()
				RunDisjoint[float64](m, um, vm, vm, c.op, Full{}, WithBaseSize[float64](base))
				check(fmt.Sprintf("%s/disjoint-b%d", name, base), m, zero)
			}
			// Gaussian set: cell (i,j) takes only k < min(i,j), so row 0,
			// column 0 and the cells whose u column is not below them
			// keep ∓x; the rank-1 loop serves these partial blocks.
			m = xm.Clone()
			RunDisjoint[float64](m, um, vm, vm, c.op, Gaussian{}, WithBaseSize[float64](4))
			check(name+"/disjoint-gaussian", m, func(i, j int) float64 {
				if k := (3*i + 1) % s; k < i && k < j {
					return 0
				}
				return c.xv
			})
		}
	}
}

// TestBlockCoveredMatchesScan: the O(1) coverage answers for the
// standard sets must equal the per-(i,k) JRange scan every other
// Ranger gets.
func TestBlockCoveredMatchesScan(t *testing.T) {
	scan := func(rg Ranger, xi, xj, k0, s int) bool {
		for k := k0; k < k0+s; k++ {
			for i := xi; i < xi+s; i++ {
				if lo, hi := rg.JRange(i, k); lo > xj || hi < xj+s {
					return false
				}
			}
		}
		return true
	}
	for _, rg := range []Ranger{Full{}, LU{}, Gaussian{}} {
		for _, s := range []int{1, 2, 4} {
			for xi := 0; xi < 16; xi += s {
				for xj := 0; xj < 16; xj += s {
					for k0 := 0; k0 < 16; k0 += s {
						if got, want := blockCovered(rg, xi, xj, k0, s), scan(rg, xi, xj, k0, s); got != want {
							t.Fatalf("%T block (%d,%d,%d,%d): covered %v, scan %v", rg, xi, xj, k0, s, got, want)
						}
					}
				}
			}
		}
	}
}
