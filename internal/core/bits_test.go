package core

import (
	"math/rand"
	"testing"

	"gep/internal/matrix"
	"gep/internal/par"
)

// Differential tests for the packed kernels (bits.go): every engine
// run over a *matrix.Bits must be bit-for-bit equal to the same engine
// run over the generic Grid path on the same boolean input, for every
// combination of op, set, base size, table width, alignment and
// worker count. The generic path is the oracle — it performs the
// paper's per-element updates literally.

// randPackedPair returns the same random boolean matrix in packed and
// dense form. density is the probability of a set cell in percent.
func randPackedPair(rng *rand.Rand, n, density int) (*matrix.Bits, *matrix.Dense[bool]) {
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

// unalignedPacked copies d into a square view whose column 0 sits
// mid-word, to exercise the edge-masked kernels.
func unalignedPacked(d *matrix.Dense[bool], off int) *matrix.Bits {
	n := d.N()
	parent := matrix.NewBits(n, n+off+7)
	v := parent.Sub(0, off, n, n)
	v.CopyFrom(matrix.PackBool(d))
	return v
}

func packedEqualsDense(b *matrix.Bits, d *matrix.Dense[bool]) bool {
	for i := 0; i < d.N(); i++ {
		for j := 0; j < d.N(); j++ {
			if b.At(i, j) != d.At(i, j) {
				return false
			}
		}
	}
	return true
}

// packedOps are the (op, set) instances with packed kernels. The
// Gaussian set drives GF2Elim's designed use; Full additionally forces
// GF2Elim through its per-element fallback rows (j intervals that
// include column k) and Closure through k-overlapping blocks.
var packedOps = []struct {
	name string
	op   Op[bool]
	set  UpdateSet
}{
	{"closure/full", Closure{}, Full{}},
	{"closure/gauss", Closure{}, Gaussian{}},
	{"gf2elim/gauss", GF2Elim{}, Gaussian{}},
	{"gf2elim/full", GF2Elim{}, Full{}},
}

// TestPackedMatchesGenericIGEP runs RunIGEP over packed storage
// (aligned and mid-word views) against the opaque generic path across
// base sizes and table widths, including widths small enough that the
// four-Russians kernel triggers at these sizes. Oracle and packed runs
// share each base size: the gf2elim/full instance is deliberately
// outside I-GEP's correctness domain (update order matters), so the
// comparison must hold the recursion shape fixed and vary only the
// storage and kernel tier — exactly the property the packed kernels
// guarantee.
func TestPackedMatchesGenericIGEP(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 8, 16, 64, 128} {
		for _, tc := range packedOps {
			_, src := randPackedPair(rng, n, 30)
			for _, base := range []int{1, 8, 64, 512} {
				want := src.Clone()
				RunIGEP[bool](opaqueGrid[bool]{want}, tc.op, tc.set, WithBaseSize[bool](base))
				for _, tw := range []int{0, 4, 8} {
					for _, off := range []int{0, 13} {
						got := unalignedPacked(src, off)
						RunIGEP[bool](got, tc.op, tc.set,
							WithBaseSize[bool](base), WithTableWidth[bool](tw))
						if !packedEqualsDense(got, want) {
							t.Fatalf("n=%d %s base=%d tw=%d off=%d: packed IGEP diverges from generic",
								n, tc.name, base, tw, off)
						}
						if base == 512 {
							// The auto sentinel must resolve to the packed
							// default (512) when a word kernel binds — same
							// result as the explicit run, even on views.
							got = unalignedPacked(src, off)
							RunIGEP[bool](got, tc.op, tc.set, WithTableWidth[bool](tw))
							if !packedEqualsDense(got, want) {
								t.Fatalf("n=%d %s auto-base tw=%d off=%d: packed IGEP diverges from generic",
									n, tc.name, tw, off)
							}
						}
					}
				}
			}
		}
	}
}

// TestPackedMatchesGenericABCD runs the multithreaded A/B/C/D
// recursion over packed storage at several worker counts against the
// serial generic oracle. Matrices are aligned and the grain >= 64, the
// contract under which concurrent quadrants never share a word.
func TestPackedMatchesGenericABCD(t *testing.T) {
	defer par.ResetWorkers()
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{64, 128, 256} {
		for _, tc := range packedOps {
			_, src := randPackedPair(rng, n, 30)
			// Serial A/B/C/D (a grain of n forks nothing) on the opaque
			// grid at the same base size is the oracle: same recursion
			// shape, generic per-cell kernel.
			want := src.Clone()
			RunIGEP[bool](opaqueGrid[bool]{want}, tc.op, tc.set, WithBaseSize[bool](32), WithParallel[bool](n))
			for _, p := range []int{1, 2, 4} {
				par.SetWorkers(p)
				got := matrix.PackBool(src)
				RunIGEP[bool](got, tc.op, tc.set,
					WithBaseSize[bool](32), WithTableWidth[bool](4), WithParallel[bool](64))
				if !packedEqualsDense(got, want) {
					t.Fatalf("n=%d %s p=%d: packed ABCD diverges from generic", n, tc.name, p)
				}
			}
		}
	}
}

// TestPackedM4RITriggers pins the four-Russians crossover: at n=128,
// base 64, tw=4 the D-type blocks must take the table kernel (the
// counter moves), and the result still matches the oracle — so the
// m4ri runs asserted here are the very runs proven bit-identical
// above. It also checks tw=0 never tables.
func TestPackedM4RITriggers(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	_, src := randPackedPair(rng, 128, 30)
	want := src.Clone()
	RunIGEP[bool](opaqueGrid[bool]{want}, Closure{}, Full{})

	before := kernelBitsM4RICount.Value()
	got := matrix.PackBool(src)
	RunIGEP[bool](got, Closure{}, Full{}, WithBaseSize[bool](64), WithTableWidth[bool](4))
	if kernelBitsM4RICount.Value() == before {
		t.Fatal("four-Russians kernel never triggered at n=128 base=64 tw=4")
	}
	if !packedEqualsDense(got, want) {
		t.Fatal("four-Russians run diverges from generic")
	}

	before = kernelBitsM4RICount.Value()
	got = matrix.PackBool(src)
	RunIGEP[bool](got, Closure{}, Full{}, WithBaseSize[bool](64), WithTableWidth[bool](0))
	if kernelBitsM4RICount.Value() != before {
		t.Fatal("tw=0 still took the four-Russians kernel")
	}
	if !packedEqualsDense(got, want) {
		t.Fatal("tw=0 word-kernel run diverges from generic")
	}
}

// TestM4RIWinsCrossover sanity-checks the crossover predicate: the
// table path must be off for tiny blocks and tw=0, on for the sizes
// the auto base targets.
func TestM4RIWinsCrossover(t *testing.T) {
	for _, tc := range []struct {
		tw, s int
		want  bool
	}{
		{0, 512, false},
		{8, 8, false},
		{8, 64, false},
		{8, 128, true},
		{8, 512, true},
		{4, 16, true},
		{17, 512, false},
	} {
		if got := m4riWins(tc.tw, tc.s); got != tc.want {
			t.Errorf("m4riWins(%d, %d) = %v, want %v", tc.tw, tc.s, got, tc.want)
		}
	}
}

// opaqueBoolOp wraps an UpdateFunc with no kernel interfaces, forcing
// the engines down the generic per-cell path even on packed storage.
type opaqueBoolOp struct{ f UpdateFunc[bool] }

func (o opaqueBoolOp) Func() UpdateFunc[bool] { return o.f }

// TestPackedGenericFallback: a packed grid with an op that has no
// BitsKernel must still compute correctly through the per-cell generic
// path (the Grid interface), proving Bits is a drop-in Grid — and
// RunGEP's packed fast path must agree with that generic path.
func TestPackedGenericFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	_, src := randPackedPair(rng, 16, 40)
	want := src.Clone()
	RunGEP[bool](opaqueGrid[bool]{want}, Closure{}, Full{})
	for name, op := range map[string]Op[bool]{
		"opaque-op": opaqueBoolOp{Closure{}.Func()},
		"fused-op":  Closure{},
	} {
		got := matrix.PackBool(src)
		RunGEP[bool](got, op, Full{})
		if !packedEqualsDense(got, want) {
			t.Fatalf("%s: packed grid under RunGEP diverges from dense", name)
		}
		got = matrix.PackBool(src)
		RunIGEP[bool](got, op, Full{}, WithBaseSize[bool](4))
		if !packedEqualsDense(got, want) {
			t.Fatalf("%s: packed grid under RunIGEP diverges from dense", name)
		}
	}
}
