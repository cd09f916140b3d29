package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests compare each assembly tier the host has with the Go loops
// by setting the package's switches, useAVX2 and useAVX512; none of
// them runs in parallel. Where no tier is built or selected only the
// Go loops run and the comparisons hold trivially.

// lengths are the row lengths the tests cover: every tail (len mod 4)
// around zero and around a 64-wide base case, and 12 and 60, where the
// assembly's last four columns run in YMM after the ZMM loop and no Go
// tail follows.
var lengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 60, 61, 62, 63, 64, 65, 66, 67}

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

// tier is one setting of the package's switches.
type tier struct {
	name         string
	avx2, avx512 bool
}

// tiers are the tiers this host runs: AVX-512, AVX2 with the wide path
// off, and the Go loops, the last always present. It reads the
// switches as init set them, so it is called outside any tier's use.
func tiers() []tier {
	var ts []tier
	if hasAVX2 && useAVX512 {
		ts = append(ts, tier{"avx512", true, true})
	}
	if hasAVX2 {
		ts = append(ts, tier{"avx2", true, false})
	}
	return append(ts, goLoops)
}

// use selects t and returns a func that restores the switches.
func (t tier) use() (restore func()) {
	saved2, saved512 := useAVX2, useAVX512
	useAVX2, useAVX512 = t.avx2, t.avx512
	return func() { useAVX2, useAVX512 = saved2, saved512 }
}

// goLoops is the tier every other is compared with.
var goLoops = tier{"go", false, false}

// onTiers runs f on a copy of x with the Go loops and on a fresh copy
// per assembly tier, fails the test where a tier's bits differ from
// the Go loops', and returns the Go loops' result.
func onTiers(t *testing.T, what string, x []float64, f func(x []float64)) []float64 {
	t.Helper()
	run := func(tr tier) []float64 {
		defer tr.use()()
		y := append([]float64(nil), x...)
		f(y)
		return y
	}
	loops := run(goLoops)
	for _, tr := range tiers() {
		if tr != goLoops {
			sameBits(t, what+" "+tr.name, run(tr), loops)
		}
	}
	return loops
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d = %v (%#x), want %v (%#x)", what, i,
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

// TestRowKernelsMatchGoLoops runs every single-k row kernel on every
// tier and length, on sub-slices starting at each offset mod 4,
// on distinct rows and on one row that is both x and v. It runs every
// multi-k row kernel on every tier and length and several k counts,
// over unaligned views with padded strides, and checks the result
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
					onTiers(t, what, x, func(x []float64) { k.f(x[off:], v[3:], u) })
					onTiers(t, what+" aliased", x, func(x []float64) { k.f(x[off:], x[off:], u) })
				}
			}
		}
	}
	// repeat applies the single-k kernel k = 0, …, len(u)-1 in turn with
	// the Go loops; vk returns V's row k at the time it is applied.
	repeat := func(row func(x, v []float64, u float64), x, u []float64, vk func(k int) []float64) {
		defer goLoops.use()()
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
				got := onTiers(t, what, x, func(x []float64) { k.f(x[off:], u, v[off:], vs) })
				want := append([]float64(nil), x...)
				repeat(k.row, want[off:], u, func(r int) []float64 { return v[off+r*vs:] })
				sameBits(t, what+" vs single-k", got, want)

				if k.name != "MinPlusRowK" || kn == 0 {
					continue
				}
				// V's first row is x: the row and the rows of V share one
				// buffer, x = buf[off:off+n].
				buf := fill(rng, off+kn*vs)
				got = onTiers(t, what+" aliased", buf, func(b []float64) { k.f(b[off:off+n], u, b[off:], vs) })
				want = append([]float64(nil), buf...)
				repeat(k.row, want[off:off+n], u, func(r int) []float64 { return want[off+r*vs:] })
				sameBits(t, what+" aliased vs single-k", got, want)
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

// TestBlockKernelsMatchGoLoops runs every covered-block kernel on
// every tier, on blocks of every column count, several row and k
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
					onTiers(t, what, x, func(x []float64) {
						k.f(Block[float64]{X: x[off:], U: u[off:], V: v[off:], XS: xs, US: us, VS: vs, M: m, K: kn, N: n})
					})
				}
			}
		}
	}
}

// TestKernelsAllocateNothing checks that on every tier the float64
// dispatch (a pointer assertion per call) boxes nothing.
func TestKernelsAllocateNothing(t *testing.T) {
	const s = 64
	x, u, v := make([]float64, s*s), make([]float64, s*s), make([]float64, s*s)
	b := Block[float64]{X: x, U: u, V: v, XS: s, US: s, VS: s, M: s, K: s, N: s}
	for _, tr := range tiers() {
		restore := tr.use()
		a := testing.AllocsPerRun(10, func() {
			MinPlusRow(x[:s], v[:s], 1)
			AddRow(x[:s], v[:s], 1)
			SubRow(x[:s], v[:s], 1)
			MinPlusRowK(x[:s], u[:s], v, s)
			SubRowK(x[:s], u[:s], v, s)
			MinPlusRows(b)
			MulAddRows(b)
			MulSubRows(b)
		})
		restore()
		if a != 0 {
			t.Errorf("%s: %v allocations per round, want 0", tr.name, a)
		}
	}
}

// TestMulAddChains checks that on every tier the calibration kernel
// counts its flops and that its chains converge to their fixed point
// c/(1−m).
func TestMulAddChains(t *testing.T) {
	shape := map[string]struct{ chains, lanes float64 }{
		"avx512": {24, 8}, "avx2": {12, 4}, "go": {8, 1},
	}
	for _, tr := range tiers() {
		restore := tr.use()
		const iters = 1 << 24
		flops, sum := MulAddChains(iters)
		restore()
		sh := shape[tr.name] // the sum adds one lane of each chain
		if want := 2 * sh.chains * sh.lanes * iters; flops != want {
			t.Errorf("%s: %v flops, want %v", tr.name, flops, want)
		}
		if fixed := sh.chains * 1e-9 / 1e-6; math.Abs(sum-fixed) > 1e-3*fixed {
			t.Errorf("%s: chains sum to %v, want ≈ %v", tr.name, sum, fixed)
		}
	}
}

// BenchmarkRows times each covered-block kernel on one 64² block of
// 64² operands, on every tier the host has.
func BenchmarkRows(b *testing.B) {
	const s = 64
	rng := rand.New(rand.NewSource(3))
	x, u, v := make([]float64, s*s), make([]float64, s*s), make([]float64, s*s)
	for i := range x {
		x[i], u[i], v[i] = rng.Float64(), rng.Float64(), rng.Float64()
	}
	blk := Block[float64]{X: x, U: u, V: v, XS: s, US: s, VS: s, M: s, K: s, N: s}
	for _, k := range blockKernels {
		for _, tr := range tiers() {
			b.Run(k.name+"/"+tr.name, func(b *testing.B) {
				defer tr.use()()
				for i := 0; i < b.N; i++ {
					k.f(blk)
				}
				b.ReportMetric(2*s*s*s*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}
