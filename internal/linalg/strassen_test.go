package linalg

import (
	"math"
	"math/rand"
	"testing"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/metrics"
	"gep/internal/par"
)

// maxAbs returns the max-abs-entry norm used by StrassenErrorBound.
func maxAbs(m *matrix.Dense[float64]) float64 {
	n := m.Rows()
	v := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a := math.Abs(m.At(i, j)); a > v {
				v = a
			}
		}
	}
	return v
}

// strassenDiffCheck compares a Strassen product against the fused
// classical product within the a-priori Winograd error bound.
func strassenDiffCheck(t *testing.T, got *matrix.Dense[float64], a, b *matrix.Dense[float64], n, crossover int, label string) {
	t.Helper()
	want := matrix.NewSquare[float64](n)
	if matrix.IsPow2(n) {
		MulFused(want, a, b, 64)
	} else {
		MulNaive(want, a, b) // MulFused is pow2-only
	}
	bound := StrassenErrorBound(n, crossover, maxAbs(a), maxAbs(b))
	if d := MaxAbsDiff(want, got); d > bound {
		t.Fatalf("%s n=%d crossover=%d: max diff %g > bound %g", label, n, crossover, d, bound)
	}
}

// TestMulStrassenMatchesNaive: small shapes, deep recursion (tiny
// crossover forces Winograd levels even at n=8), oracle is the naive
// triple loop.
func TestMulStrassenMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, n := range []int{1, 2, 3, 5, 7, 8, 12, 16, 17, 31, 33, 64} {
		a, b := randDense(rng, n), randDense(rng, n)
		want := matrix.NewSquare[float64](n)
		MulNaive(want, a, b)
		for _, co := range []int{2, 4, 8, 0} {
			got := matrix.NewSquare[float64](n)
			MulStrassen(got, a, b, co)
			eff := co
			if eff == 0 {
				eff = DefaultCrossover
			}
			bound := StrassenErrorBound(n, eff, maxAbs(a), maxAbs(b))
			if bound < 1e-12*float64(n) {
				bound = 1e-12 * float64(n)
			}
			if d := MaxAbsDiff(want, got); d > bound {
				t.Fatalf("n=%d crossover=%d: max diff %g > %g", n, co, d, bound)
			}
		}
	}
}

// TestMulStrassenDifferential is the ISSUE's acceptance matrix:
// n ∈ {odd, pow2, pow2±1} × workers ∈ {1, 2, 4} × crossover ∈
// {one Winograd level, auto}, every cell compared against the fused
// classical product within the explicit Strassen error bound, and the
// parallel result asserted bit-identical to the serial one.
func TestMulStrassenDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{63, 64, 65, 96, 127, 128, 129} {
		a, b := randDense(rng, n), randDense(rng, n)
		for _, co := range []int{(n + 1) / 2, 0, 16} { // one level, auto, deep
			serial := matrix.NewSquare[float64](n)
			MulStrassen(serial, a, b, co)
			eff := co
			if eff == 0 {
				eff = DefaultCrossover
			}
			strassenDiffCheck(t, serial, a, b, n, eff, "MulStrassen")
			for _, workers := range []int{1, 2, 4} {
				rt := par.NewRuntime(workers)
				got := matrix.NewSquare[float64](n)
				MulStrassen(got, a, b, co, core.WithParallel[float64](64), core.WithRuntime[float64](rt))
				rt.Close()
				if !serial.EqualFunc(got, func(x, y float64) bool { return x == y }) {
					t.Fatalf("n=%d crossover=%d workers=%d: parallel not bitwise equal to serial", n, co, workers)
				}
			}
		}
	}
}

// TestMulStrassenBitwiseReproducible: same inputs, same worker count,
// repeated runs must agree bit for bit (fixed expression trees; the
// scheduler only reorders disjoint writes).
func TestMulStrassenBitwiseReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	n := 129
	a, b := randDense(rng, n), randDense(rng, n)
	rt := par.NewRuntime(4)
	defer rt.Close()
	first := matrix.NewSquare[float64](n)
	MulStrassen(first, a, b, 16, core.WithParallel[float64](64), core.WithRuntime[float64](rt))
	for run := 0; run < 3; run++ {
		got := matrix.NewSquare[float64](n)
		MulStrassen(got, a, b, 16, core.WithParallel[float64](64), core.WithRuntime[float64](rt))
		if !first.EqualFunc(got, func(x, y float64) bool { return x == y }) {
			t.Fatalf("run %d: not bit-reproducible", run)
		}
	}
}

// TestMulStrassenParallelForks: a size large enough that the parallel
// classical leaves actually fork on the runtime (s > grain) must still
// be bitwise equal to the serial schedule.
func TestMulStrassenParallelForks(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	n := 384
	a, b := randDense(rng, n), randDense(rng, n)
	serial := matrix.NewSquare[float64](n)
	MulStrassen(serial, a, b, 0)
	rt := par.NewRuntime(4)
	got := matrix.NewSquare[float64](n)
	MulStrassen(got, a, b, 0, core.WithParallel[float64](64), core.WithRuntime[float64](rt))
	pooled := rt.Metrics().Snapshot()["par.spawn.pooled"]
	rt.Close()
	if !serial.EqualFunc(got, func(x, y float64) bool { return x == y }) {
		t.Fatalf("forked parallel result not bitwise equal to serial")
	}
	if pooled == 0 {
		t.Fatalf("expected the classical leaves to fork on the runtime")
	}
}

// TestMulStrassenClassicalFallback: a crossover at or above n takes
// the purely classical path, which must be bitwise equal to MulFused
// on a zeroed destination (same recursion shape, same fused kernels,
// same ascending-k order).
func TestMulStrassenClassicalFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, n := range []int{64, 128, 256} {
		a, b := randDense(rng, n), randDense(rng, n)
		want := matrix.NewSquare[float64](n)
		MulFused(want, a, b, 64)
		got := matrix.NewSquare[float64](n)
		MulStrassen(got, a, b, n)
		if !want.EqualFunc(got, func(x, y float64) bool { return x == y }) {
			t.Fatalf("n=%d: classical fallback not bitwise equal to MulFused", n)
		}
	}
}

// TestStrassenArenaBalanced: every arena get is matched by a put
// (leak check), and across a multi-level recursion the pool recycles
// buffers, so allocations stay strictly below gets (reuse check).
func TestStrassenArenaBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	n := 256
	a, b := randDense(rng, n), randDense(rng, n)
	c := matrix.NewSquare[float64](n)
	before := metrics.Snapshot()
	MulStrassen(c, a, b, 16)
	d := metrics.Diff(before, metrics.Snapshot())
	get, put, alloc := d["linalg.strassen.arena.get"], d["linalg.strassen.arena.put"], d["linalg.strassen.arena.alloc"]
	if get == 0 {
		t.Fatalf("expected arena traffic, got none")
	}
	if get != put {
		t.Fatalf("arena leak: get=%d put=%d", get, put)
	}
	if alloc >= get {
		t.Fatalf("arena not reusing buffers: alloc=%d get=%d", alloc, get)
	}
}

// TestMulStrassenGenericBitwise: the Grid backend the bounds2
// experiment traces must be bitwise identical to the flat engine —
// same recursion shape, same schedule, same rounding — at every shape
// class and crossover.
func TestMulStrassenGenericBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	for _, n := range []int{5, 17, 33, 64, 96, 129} {
		a, b := randDense(rng, n), randDense(rng, n)
		for _, co := range []int{4, 16, 0} {
			want := matrix.NewSquare[float64](n)
			MulStrassen(want, a, b, co)
			got := matrix.NewSquare[float64](n)
			MulStrassenGeneric(got, a, b, co, nil, nil)
			if !want.EqualFunc(got, func(x, y float64) bool { return x == y }) {
				t.Fatalf("n=%d crossover=%d: generic mirror not bitwise equal", n, co)
			}
		}
	}
}

// FuzzStrassenVsClassical drives random shapes, seeds, and crossovers
// through MulStrassen and checks against the naive product within the
// explicit error bound. Auto-discovered by the CI fuzz job.
func FuzzStrassenVsClassical(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2))
	f.Add(int64(2), uint8(13), uint8(4))
	f.Add(int64(3), uint8(32), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, coRaw uint8) {
		n := int(nRaw)%48 + 1
		co := int(coRaw) % 32
		rng := rand.New(rand.NewSource(seed))
		a, b := randDense(rng, n), randDense(rng, n)
		got := matrix.NewSquare[float64](n)
		MulStrassen(got, a, b, co)
		want := matrix.NewSquare[float64](n)
		MulNaive(want, a, b)
		eff := co
		if eff == 0 {
			eff = DefaultCrossover
		}
		bound := StrassenErrorBound(n, eff, maxAbs(a), maxAbs(b))
		if bound < 1e-12*float64(n) {
			bound = 1e-12 * float64(n)
		}
		if d := MaxAbsDiff(want, got); d > bound {
			t.Fatalf("n=%d crossover=%d: max diff %g > bound %g", n, co, d, bound)
		}
	})
}
