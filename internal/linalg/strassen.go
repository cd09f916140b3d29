package linalg

// Strassen-Winograd matrix multiplication: the first engine in this
// repository that is asymptotically faster than the paper's Θ(n³) GEP
// family. The recursion trades one of the eight classical quadrant
// multiplies for fifteen quadrant additions (Winograd's operation-
// minimal variant of Strassen's identity), giving O(n^log₂7) ≈
// O(n^2.807) flops, and switches to the classical cache-oblivious
// recursion at a crossover size where the O(s²) addition overhead
// stops paying for the saved eighth multiply. Classical leaves bottom
// out in the existing fused disjoint kernel (core.DisjointBlock →
// MulAdd.Kernel), so below the crossover the engine is exactly the
// MulFused machinery.
//
// Design points (DESIGN.md §15):
//
//   - Temporaries come from a pooled arena: the serial Winograd
//     schedule (Douglas et al.'s two-temporary ordering) needs exactly
//     two (s/2)² buffers per level, reused across the seven sibling
//     products, so the total extra working set is 2·(n/2)²·Σ4⁻ᵏ ≤
//     2n²/3 — and the arena recycles freed buffers across levels and
//     sizes, so repeated calls allocate nothing.
//   - Non-power-of-two sides use dynamic peeling: an odd side s is
//     handled as the even (s−1)-side product plus a rank-1 update and
//     one peeled row/column of full dot products — O(s²) fix-up work,
//     no full-matrix padding copy.
//   - Parallel entry points fork the classical sub-multiplies'
//     quadrants on the par.Runtime work-stealing pool with the same
//     depth-cutoff discipline as core's A/B/C/D schedule (the runtime
//     inlines forks past its cutoff); the fork grain is sized from
//     Runtime.Workers, never from GOMAXPROCS. The Winograd chain itself is sequenced so
//     sibling products can share the two arena temporaries.
//   - Determinism: every output cell's value is a fixed expression
//     tree — the schedule fixes which products feed which quadrant and
//     in which association order, and classical accumulation applies
//     strictly ascending in k with the two-rounding (t := u·v; x += t)
//     discipline of the fused kernels. Scheduling only reorders
//     disjoint writes, so results are bit-identical run-to-run, across
//     worker counts, and between MulStrassen and MulStrassenParallel.
//
// MulStrassen computes c = a·b (overwrite), unlike MulFused's
// accumulate contract: the sub-cubic recursion has no natural
// c += a·b form without one extra n² buffer, and every caller in this
// repository multiplies into a fresh matrix. c must not overlap a or b.

import (
	"math/bits"
	"sync"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/metrics"
	"gep/internal/par"
)

// DefaultCrossover is the auto-tuned side at which the Winograd
// recursion hands over to the classical fused recursion. Measured
// against MulFused on the benchmark container (EXPERIMENTS.md records
// the sweep): at n ∈ {1024, 2048} crossovers of 64–192 all beat
// MulFused, with the minimum near 64–128 — the fused kernel is scalar
// Go, so the saved eighth multiply pays down to small leaves — while
// larger crossovers forfeit Winograd levels (co=512 gives 6.1s vs
// 3.9s at n=2048 against 7.7s fused). 128 is chosen over 64 to keep
// one fork level inside parallel classical leaves and two doublings
// of error-bound headroom. WithCrossover overrides it.
const DefaultCrossover = 128

// strassenBase is the side at which classical leaves call the fused
// disjoint kernel — the same empirically tuned base size as the other
// engines (core's autoBaseSize).
const strassenBase = 64

// Arena telemetry: get/put must balance after every run (the leak
// assertion in strassen_test.go), and alloc < get whenever buffers are
// actually recycled across siblings and levels.
var (
	arenaGetCount   = metrics.New("linalg.strassen.arena.get")
	arenaPutCount   = metrics.New("linalg.strassen.arena.put")
	arenaAllocCount = metrics.New("linalg.strassen.arena.alloc")
	strassenNodes   = metrics.New("linalg.strassen.nodes")
)

// StrassenOption configures MulStrassen; see WithCrossover.
type StrassenOption func(*strassenCfg)

type strassenCfg struct {
	crossover int
}

// WithCrossover overrides the Winograd→classical crossover side
// (values < 1 keep DefaultCrossover). A crossover at or above n runs
// the purely classical recursion — bit-identical to MulFused on a
// zeroed destination.
func WithCrossover(s int) StrassenOption {
	return func(c *strassenCfg) {
		if s >= 1 {
			c.crossover = s
		}
	}
}

// fview is an s×s strided window over flat row-major storage; the side
// travels alongside in the recursion.
type fview struct {
	d      []float64
	stride int
}

func viewOf(m *matrix.Dense[float64]) fview {
	d, stride, _ := matrix.Flat[float64](m)
	return fview{d: d, stride: stride}
}

func (v fview) sub(i, j int) fview { return fview{d: v.d[i*v.stride+j:], stride: v.stride} }

func (v fview) row(i, s int) []float64 { return v.d[i*v.stride : i*v.stride+s] }

// arena pools temp buffers by side. Gets and puts may race only when a
// future schedule forks Winograd nodes; the mutex is uncontended in the
// sequenced schedule and costs two atomic ops per (s/2)²-sized buffer.
type arena struct {
	mu   sync.Mutex
	free map[int][][]float64
}

func newArena() *arena { return &arena{free: map[int][][]float64{}} }

func (ar *arena) get(h int) []float64 {
	arenaGetCount.Inc()
	ar.mu.Lock()
	if l := ar.free[h]; len(l) > 0 {
		buf := l[len(l)-1]
		ar.free[h] = l[:len(l)-1]
		ar.mu.Unlock()
		return buf
	}
	ar.mu.Unlock()
	arenaAllocCount.Inc()
	return make([]float64, h*h)
}

func (ar *arena) put(h int, buf []float64) {
	arenaPutCount.Inc()
	ar.mu.Lock()
	ar.free[h] = append(ar.free[h], buf)
	ar.mu.Unlock()
}

type strassenState struct {
	crossover int
	base      int
	grain     int          // classical quadrants fork while s > grain
	rt        *par.Runtime // nil = serial
	ar        *arena
}

// MulStrassen computes c = a·b (overwriting c) with the serial
// Strassen-Winograd recursion. Any side length; c must not overlap
// a or b.
func MulStrassen(c, a, b *matrix.Dense[float64], opts ...StrassenOption) {
	mulStrassen(nil, c, a, b, opts)
}

// MulStrassenParallel is MulStrassen with the classical sub-multiplies
// forked on the default work-stealing runtime. Bit-identical to
// MulStrassen at every worker count.
func MulStrassenParallel(c, a, b *matrix.Dense[float64], opts ...StrassenOption) {
	mulStrassen(par.Or(nil), c, a, b, opts)
}

// MulStrassenParallelOn is MulStrassenParallel with all forks confined
// to rt (nil = the default runtime).
func MulStrassenParallelOn(rt *par.Runtime, c, a, b *matrix.Dense[float64], opts ...StrassenOption) {
	mulStrassen(par.Or(rt), c, a, b, opts)
}

func mulStrassen(rt *par.Runtime, c, a, b *matrix.Dense[float64], opts []StrassenOption) {
	n := checkMulDims(c, a, b)
	if n == 0 {
		return
	}
	cfg := strassenCfg{crossover: DefaultCrossover}
	for _, o := range opts {
		o(&cfg)
	}
	st := &strassenState{crossover: cfg.crossover, base: strassenBase, rt: rt, ar: newArena()}
	if rt != nil {
		// Fork grain sized from the runtime's actual worker budget
		// (Runtime.Workers, not GOMAXPROCS), mirroring par's automatic
		// depth cutoff of log₂(workers)+2 fork levels: quadrant halving
		// below n>>levels could only create forks the runtime would
		// inline anyway.
		levels := bits.Len(uint(rt.Workers())) + 2
		st.grain = n >> levels
		if st.grain < st.base {
			st.grain = st.base
		}
	}
	st.mul(viewOf(c), viewOf(a), viewOf(b), n)
}

// mul computes C = A·B (overwrite) on s×s views.
func (st *strassenState) mul(c, a, b fview, s int) {
	if s <= st.crossover {
		zero(c, s)
		st.classic(c, a, b, s)
		return
	}
	if s&1 == 1 {
		// Dynamic peeling: even-side product on the leading block, then
		// O(s²) fix-ups for the peeled row, column, and k = s−1 term.
		st.mul(c, a, b, s-1)
		st.peelFixup(c, a, b, s, true)
		return
	}
	st.winograd(c, a, b, s)
}

// winograd is one Strassen-Winograd level: 7 sub-products + 15
// quadrant additions in the two-temporary ordering of Douglas et al.
// With S1 = A21+A22, S2 = S1−A11, S3 = A11−A21, S4 = A12−S2,
// T1 = B12−B11, T2 = B22−T1, T3 = B22−B12, T4′ = B21−T2 and products
// P1 = A11·B11, P2 = A12·B21, P3 = S4·B22, P4′ = A22·T4′, P5 = S1·T1,
// P6 = S2·T2, P7 = S3·T3, the output quadrants are
//
//	C11 = P1 + P2
//	C12 = ((P6 + P1) + P5) + P3
//	C21 = ((P6 + P1) + P7) + P4′
//	C22 = ((P6 + P1) + P7) + P5
//
// (P4′ absorbs the conventional U3−P4 subtraction into its right
// operand, so every combination step is an addition). The schedule
// below realizes exactly these expression trees while keeping only the
// two temporaries X and Y live.
func (st *strassenState) winograd(c, a, b fview, s int) {
	strassenNodes.Inc()
	h := s / 2
	a11, a12, a21, a22 := a, a.sub(0, h), a.sub(h, 0), a.sub(h, h)
	b11, b12, b21, b22 := b, b.sub(0, h), b.sub(h, 0), b.sub(h, h)
	c11, c12, c21, c22 := c, c.sub(0, h), c.sub(h, 0), c.sub(h, h)

	xb, yb := st.ar.get(h), st.ar.get(h)
	x, y := fview{d: xb, stride: h}, fview{d: yb, stride: h}

	subv(x, a11, a21, h)   // X = S3
	subv(y, b22, b12, h)   // Y = T3
	st.mul(c21, x, y, h)   // C21 = P7
	addv(x, a21, a22, h)   // X = S1
	subv(y, b12, b11, h)   // Y = T1
	st.mul(c22, x, y, h)   // C22 = P5
	subv(x, x, a11, h)     // X = S2
	subv(y, b22, y, h)     // Y = T2
	st.mul(c12, x, y, h)   // C12 = P6
	subv(x, a12, x, h)     // X = S4
	st.mul(c11, x, b22, h) // C11 = P3
	st.mul(x, a11, b11, h) // X = P1 (S4 was consumed by P3)
	addacc(c12, x, h)      // C12 = P6 + P1          (U2)
	addacc(c21, c12, h)    // C21 = U2 + P7          (U3)
	addacc(c12, c22, h)    // C12 = U2 + P5          (U4)
	addacc(c22, c21, h)    // C22 = U3 + P5          final
	addacc(c12, c11, h)    // C12 = U4 + P3          final
	subv(y, b21, y, h)     // Y = T4′
	st.mul(c11, a22, y, h) // C11 = P4′ (P3 was consumed above)
	addacc(c21, c11, h)    // C21 = U3 + P4′         final
	st.mul(y, a12, b21, h) // Y = P2 (T4′ was consumed by P4′)
	addto(c11, x, y, h)    // C11 = P1 + P2          final

	st.ar.put(h, xb)
	st.ar.put(h, yb)
}

// classic computes C += A·B with the classical cache-oblivious
// recursion on any side: odd sides peel, even sides split 8-way with
// the two k-halves sequenced (each cell's additions stay in ascending
// k order), and base blocks run the fused disjoint kernel. On
// power-of-two sides this is exactly MulFused's update order.
func (st *strassenState) classic(c, a, b fview, s int) {
	if s <= st.base {
		core.DisjointBlock[float64](core.MulAdd[float64]{}, core.Full{},
			c.d, c.stride, a.d, a.stride, b.d, b.stride, b.d, b.stride, s)
		return
	}
	if s&1 == 1 {
		st.classic(c, a, b, s-1)
		st.peelFixup(c, a, b, s, false)
		return
	}
	h := s / 2
	c11, c12, c21, c22 := c, c.sub(0, h), c.sub(h, 0), c.sub(h, h)
	a1, a2 := a, a.sub(0, h) // A[*, k-half] views: (row half, k half)
	b1, b2 := b, b.sub(h, 0)
	if st.rt != nil && s > st.grain {
		st.rt.Do(
			func() { st.classic(c11, a1, b1, h) },
			func() { st.classic(c12, a1, b1.sub(0, h), h) },
			func() { st.classic(c21, a1.sub(h, 0), b1, h) },
			func() { st.classic(c22, a1.sub(h, 0), b1.sub(0, h), h) },
		)
		st.rt.Do(
			func() { st.classic(c11, a2, b2, h) },
			func() { st.classic(c12, a2, b2.sub(0, h), h) },
			func() { st.classic(c21, a2.sub(h, 0), b2, h) },
			func() { st.classic(c22, a2.sub(h, 0), b2.sub(0, h), h) },
		)
		return
	}
	st.classic(c11, a1, b1, h)
	st.classic(c12, a1, b1.sub(0, h), h)
	st.classic(c21, a1.sub(h, 0), b1, h)
	st.classic(c22, a1.sub(h, 0), b1.sub(0, h), h)
	st.classic(c11, a2, b2, h)
	st.classic(c12, a2, b2.sub(0, h), h)
	st.classic(c21, a2.sub(h, 0), b2, h)
	st.classic(c22, a2.sub(h, 0), b2.sub(0, h), h)
}

// peelFixup applies the peeled contributions of an odd side s = m+1
// after the even m×m product: the k = m rank-1 term into the leading
// block (ascending-k order is preserved — every k < m contribution was
// already applied), then the peeled column j = m and row i = m as full
// dot products. overwrite selects product semantics for the peeled
// row/column (their cells received no contribution from the leading
// product); the rank-1 term always accumulates.
func (st *strassenState) peelFixup(c, a, b fview, s int, overwrite bool) {
	m := s - 1
	bm := b.row(m, m)
	for i := 0; i < m; i++ {
		u := a.d[i*a.stride+m]
		cr := c.row(i, m)
		for j, v := range bm {
			t := u * v
			cr[j] += t
		}
	}
	// Peeled column j = m, rows 0..m-1.
	for i := 0; i < m; i++ {
		ar := a.row(i, s)
		x := 0.0
		if !overwrite {
			x = c.d[i*c.stride+m]
		}
		for k, u := range ar {
			t := u * b.d[k*b.stride+m]
			x += t
		}
		c.d[i*c.stride+m] = x
	}
	// Peeled row i = m, all s columns, k outer (row-contiguous in B).
	am := a.row(m, s)
	cm := c.row(m, s)
	if overwrite {
		for j := range cm {
			cm[j] = 0
		}
	}
	for k, u := range am {
		br := b.row(k, s)
		for j, v := range br {
			t := u * v
			cm[j] += t
		}
	}
}

func zero(c fview, s int) {
	for i := 0; i < s; i++ {
		row := c.row(i, s)
		for j := range row {
			row[j] = 0
		}
	}
}

// addv sets dst = x + y elementwise.
func addv(dst, x, y fview, s int) {
	for i := 0; i < s; i++ {
		d, xr, yr := dst.row(i, s), x.row(i, s), y.row(i, s)
		for j, xv := range xr {
			d[j] = xv + yr[j]
		}
	}
}

// subv sets dst = x − y elementwise (dst may alias x or y).
func subv(dst, x, y fview, s int) {
	for i := 0; i < s; i++ {
		d, xr, yr := dst.row(i, s), x.row(i, s), y.row(i, s)
		for j, xv := range xr {
			d[j] = xv - yr[j]
		}
	}
}

// addacc sets dst += src elementwise.
func addacc(dst, src fview, s int) {
	for i := 0; i < s; i++ {
		d, sr := dst.row(i, s), src.row(i, s)
		for j, sv := range sr {
			d[j] += sv
		}
	}
}

// addto sets dst = x + y elementwise (dst disjoint from both).
func addto(dst, x, y fview, s int) { addv(dst, x, y, s) }

// StrassenErrorBound returns an a-priori bound on the max-norm error
// of MulStrassen relative to the exact product, following Higham's
// analysis of the Winograd variant (Accuracy and Stability of
// Numerical Algorithms, §23.2.2): with L Winograd levels above a
// crossover n₀, ‖Ĉ−C‖ ≤ 18^L·(n₀²+5n₀)·u·‖A‖‖B‖ to first order, where
// ‖·‖ is the max-abs-entry norm and u = 2⁻⁵³. The level count is taken
// conservatively (peeling rounds the halving up, and the classical
// −5n credit is dropped), so the bound holds for every side, and the
// differential tests compare |MulStrassen − MulFused| against it —
// the classical side's own error is far below the Strassen term.
func StrassenErrorBound(n, crossover int, maxA, maxB float64) float64 {
	const u = 0x1p-53
	if crossover < 1 {
		crossover = DefaultCrossover
	}
	levels := 0
	for s := n; s > crossover; s = (s + 1) / 2 {
		levels++
	}
	n0 := float64(minInt(crossover, n)) + 1
	f := n0*n0 + 5*n0
	for i := 0; i < levels; i++ {
		f *= 18
	}
	return f * u * maxA * maxB
}
