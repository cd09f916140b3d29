package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests compare the AVX2 tier with the Go loops by clearing
// useAVX2, the package's one switch; none of them runs in parallel.
// Where the tier is not built or not selected both runs take the Go
// loops and the comparisons hold trivially.

// lengths are the row lengths the tests cover: every tail (len mod 4)
// around zero and around a 64-wide base case.
var lengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 61, 62, 63, 64, 65, 66, 67}

// specials are the cell values every input mixes in. The NaN carries
// the payload x86 gives every NaN an operation creates (Inf−Inf,
// 0·Inf), so every NaN of a run is that one value and all output bits
// are comparable. Which payload survives when two different NaNs meet
// is not part of the contract: it depends on the operand order of the
// add, and the Go compiler commutes float adds as it sees fit.
var specials = []float64{
	math.Float64frombits(0xfff8000000000000), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1060, -0x1p-1040, // subnormal
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// fill returns n cells: random values of mixed magnitude with about
// one in four drawn from specials.
func fill(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if rng.Intn(4) == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		} else {
			s[i] = (rng.Float64()*2 - 1) * math.Ldexp(1, rng.Intn(40)-20)
		}
	}
	return s
}

// both runs f on a copy of x with the AVX2 tier selected as detected
// and on another copy with the Go loops, and returns the two results.
func both(x []float64, f func(x []float64)) (tier, loops []float64) {
	tier, loops = append([]float64(nil), x...), append([]float64(nil), x...)
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	f(tier)
	useAVX2 = false
	f(loops)
	return tier, loops
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d = %v (%#x), Go loop %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

var rowKernels = []struct {
	name string
	f    func(x, v []float64, u float64)
}{
	{"MinPlusRow", MinPlusRow[float64]},
	{"AddRow", AddRow[float64]},
	{"SubRow", SubRow[float64]},
}

var rowKKernels = []struct {
	name string
	f    func(x, u, v []float64, vs int)
	row  func(x, v []float64, u float64) // the single-k kernel it repeats
}{
	{"MinPlusRowK", MinPlusRowK[float64], MinPlusRow[float64]},
	{"SubRowK", SubRowK[float64], SubRow[float64]},
}

// TestRowKernelsMatchGoLoops runs every single-k row kernel with both
// tiers on every length, on sub-slices starting at each offset mod 4,
// on distinct rows and on one row that is both x and v. It runs every
// multi-k row kernel with both tiers on every length and several k
// counts, over unaligned views with padded strides, and checks both
// against the single-k kernel's Go loop applied once per k;
// MinPlusRowK also runs with V's first row being x itself, the shape
// of Floyd-Warshall's B-block rows.
func TestRowKernelsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range rowKernels {
		for _, n := range lengths {
			for off := 0; off < 4; off++ {
				x, v := fill(rng, n+off), fill(rng, n+3)
				for _, u := range append(specials, fill(rng, 4)...) {
					what := fmt.Sprintf("%s n=%d off=%d u=%v", k.name, n, off, u)
					tier, loops := both(x, func(x []float64) { k.f(x[off:], v[3:], u) })
					sameBits(t, what, tier, loops)
					tier, loops = both(x, func(x []float64) { k.f(x[off:], x[off:], u) })
					sameBits(t, what+" aliased", tier, loops)
				}
			}
		}
	}
	// repeat applies the single-k kernel k = 0, …, len(u)-1 in turn with
	// the Go loops; vk returns V's row k at the time it is applied.
	repeat := func(row func(x, v []float64, u float64), x, u []float64, vk func(k int) []float64) {
		defer func(saved bool) { useAVX2 = saved }(useAVX2)
		useAVX2 = false
		for k, a := range u {
			row(x, vk(k)[:len(x)], a)
		}
	}
	for _, k := range rowKKernels {
		for _, n := range lengths {
			for _, kn := range []int{0, 1, 3, 4, 5, 8, 63} {
				off := rng.Intn(4)
				vs := n + rng.Intn(5)
				x, u, v := fill(rng, off+n), fill(rng, kn), fill(rng, off+kn*vs)
				what := fmt.Sprintf("%s k=%d n=%d off=%d", k.name, kn, n, off)
				tier, loops := both(x, func(x []float64) { k.f(x[off:], u, v[off:], vs) })
				sameBits(t, what, tier, loops)
				want := append([]float64(nil), x...)
				repeat(k.row, want[off:], u, func(r int) []float64 { return v[off+r*vs:] })
				sameBits(t, what+" vs single-k", tier, want)

				if k.name != "MinPlusRowK" || kn == 0 {
					continue
				}
				// V's first row is x: the row and the rows of V share one
				// buffer, x = buf[off:off+n].
				buf := fill(rng, off+kn*vs)
				tier, loops = both(buf, func(b []float64) { k.f(b[off:off+n], u, b[off:], vs) })
				sameBits(t, what+" aliased", tier, loops)
				want = append([]float64(nil), buf...)
				repeat(k.row, want[off:off+n], u, func(r int) []float64 { return want[off+r*vs:] })
				sameBits(t, what+" aliased vs single-k", tier, want)
			}
		}
	}
}

var blockKernels = []struct {
	name string
	f    func(Block[float64])
}{
	{"MinPlusRows", MinPlusRows[float64]},
	{"MulAddRows", MulAddRows[float64]},
	{"MulSubRows", MulSubRows[float64]},
}

// TestBlockKernelsMatchGoLoops runs every covered-block kernel with
// both tiers on blocks of every column count, several row and k
// counts, and unaligned views with padded strides.
func TestBlockKernelsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range blockKernels {
		for _, n := range lengths {
			for _, m := range []int{1, 2, 3, 5} {
				for _, kn := range []int{0, 1, 3, 4, 5, 8, 9, 63, 66} {
					off := rng.Intn(4)
					xs, us, vs := n+rng.Intn(5), kn+rng.Intn(5), n+rng.Intn(5)
					x := fill(rng, off+m*xs)
					u, v := fill(rng, off+m*us), fill(rng, off+kn*vs)
					what := fmt.Sprintf("%s m=%d k=%d n=%d off=%d", k.name, m, kn, n, off)
					tier, loops := both(x, func(x []float64) {
						k.f(Block[float64]{X: x[off:], U: u[off:], V: v[off:], XS: xs, US: us, VS: vs, M: m, K: kn, N: n})
					})
					sameBits(t, what, tier, loops)
				}
			}
		}
	}
}

// TestKernelsAllocateNothing checks that the float64 dispatch (a
// pointer assertion per call) boxes nothing.
func TestKernelsAllocateNothing(t *testing.T) {
	const s = 64
	x, u, v := make([]float64, s*s), make([]float64, s*s), make([]float64, s*s)
	b := Block[float64]{X: x, U: u, V: v, XS: s, US: s, VS: s, M: s, K: s, N: s}
	if a := testing.AllocsPerRun(10, func() {
		MinPlusRow(x[:s], v[:s], 1)
		AddRow(x[:s], v[:s], 1)
		SubRow(x[:s], v[:s], 1)
		MinPlusRowK(x[:s], u[:s], v, s)
		SubRowK(x[:s], u[:s], v, s)
		MinPlusRows(b)
		MulAddRows(b)
		MulSubRows(b)
	}); a != 0 {
		t.Fatalf("%v allocations per round, want 0", a)
	}
}

// TestMulAddChains checks that the calibration kernel counts its flops
// and that both tiers converge to the chains' fixed point c/(1−m).
func TestMulAddChains(t *testing.T) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, tier := range []bool{useAVX2, false} {
		useAVX2 = tier
		const iters = 1 << 24
		flops, sum := MulAddChains(iters)
		chains, lanes := 8.0, 1.0 // the sum adds one lane of each chain
		if tier {
			chains, lanes = 12, 4
		}
		if want := 2 * chains * lanes * iters; flops != want {
			t.Errorf("avx2=%v: %v flops, want %v", tier, flops, want)
		}
		if fixed := chains * 1e-9 / 1e-6; math.Abs(sum-fixed) > 1e-3*fixed {
			t.Errorf("avx2=%v: chains sum to %v, want ≈ %v", tier, sum, fixed)
		}
	}
}

// BenchmarkRows times each covered-block kernel on one 64² block of
// 64² operands, with the selected tier and with the Go loops.
func BenchmarkRows(b *testing.B) {
	const s = 64
	rng := rand.New(rand.NewSource(3))
	x, u, v := make([]float64, s*s), make([]float64, s*s), make([]float64, s*s)
	for i := range x {
		x[i], u[i], v[i] = rng.Float64(), rng.Float64(), rng.Float64()
	}
	blk := Block[float64]{X: x, U: u, V: v, XS: s, US: s, VS: s, M: s, K: s, N: s}
	for _, k := range blockKernels {
		for _, tier := range []bool{useAVX2, false} {
			b.Run(fmt.Sprintf("%s/avx2=%v", k.name, tier), func(b *testing.B) {
				defer func(saved bool) { useAVX2 = saved }(useAVX2)
				useAVX2 = tier
				for i := 0; i < b.N; i++ {
					k.f(blk)
				}
				b.ReportMetric(2*s*s*s*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}
