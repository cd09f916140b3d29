package linalg

// Strassen-Winograd matrix multiplication: the first engine in this
// repository that is asymptotically faster than the paper's Θ(n³) GEP
// family. The recursion (winograd.go) trades one of the eight
// classical quadrant multiplies for fifteen quadrant additions
// (Winograd's operation-minimal variant of Strassen's identity),
// giving O(n^log₂7) ≈ O(n^2.807) flops, and switches to the classical
// cache-oblivious recursion at a crossover size where the O(s²)
// addition overhead stops paying for the saved eighth multiply.
// Classical leaves bottom out in the existing fused disjoint kernel
// (core.DisjointBlock → MulAdd.Kernel), so below the crossover the
// engine is exactly the MulFused machinery. This file is its flat-slice
// backend.
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
//   - Under core.WithParallel the classical sub-multiplies' quadrants
//     fork above the grain on the work-stealing runtime
//     (core.WithRuntime's, or the default one), which inlines forks
//     past its depth cutoff. The Winograd chain itself is sequenced so
//     sibling products can share the two arena temporaries.
//   - Determinism: every output cell's value is a fixed expression
//     tree — the schedule fixes which products feed which quadrant and
//     in which association order, and classical accumulation applies
//     strictly ascending in k with the two-rounding (t := u·v; x += t)
//     discipline of the fused kernels. Scheduling only reorders
//     disjoint writes, so results are bit-identical run-to-run, across
//     worker counts, and with or without WithParallel.
//
// MulStrassen computes c = a·b (overwrite), unlike MulFused's
// accumulate contract: the sub-cubic recursion has no natural
// c += a·b form without one extra n² buffer, and every caller in this
// repository multiplies into a fresh matrix. c must not overlap a or b.

import (
	"sync"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/metrics"
	"gep/internal/par"
)

// DefaultCrossover is the side at which the Winograd recursion hands
// over to the classical fused recursion. With the AVX2 fused kernels,
// three serial sweeps on a 2-vCPU Xeon VM (medians of 5; EXPERIMENTS.md
// lists them) put every crossover in 128–512 ahead of MulFused at
// n ∈ {1024, 2048}, so the saved eighth multiply still pays at leaves
// of 128. 128 was the fastest at n = 1024 in every sweep and at most
// 8% behind the fastest at n = 2048; it also keeps one fork level inside
// parallel classical leaves and two doublings of error-bound headroom
// over 64, which lost to MulFused once at n = 1024.
const DefaultCrossover = 128

// Arena telemetry: get/put must balance after every run (the leak
// assertion in strassen_test.go), and alloc < get whenever buffers are
// actually recycled across siblings and levels. nodes counts Winograd
// levels of every backend.
var (
	arenaGetCount   = metrics.New("linalg.strassen.arena.get")
	arenaPutCount   = metrics.New("linalg.strassen.arena.put")
	arenaAllocCount = metrics.New("linalg.strassen.arena.alloc")
	strassenNodes   = metrics.New("linalg.strassen.nodes")
)

// MulStrassen computes c = a·b (overwriting c) with the
// Strassen-Winograd recursion down to crossover (< 1 selects
// DefaultCrossover) and classical leaves below it; a crossover at or
// above n runs the purely classical recursion, bit-identical to
// MulFused on a zeroed destination. Any side length; c must not
// overlap a or b. Of the engine options it reads WithBaseSize (the
// classical base block, 64 by default), WithParallel, which forks the
// classical quadrants above its grain, and WithRuntime; the output
// bits are the same under any of them.
func MulStrassen(c, a, b *matrix.Dense[float64], crossover int, opts ...core.Option[float64]) {
	n := checkMulDims(c, a, b)
	if n == 0 {
		return
	}
	base, grain, rt := core.FlatSchedule(opts...)
	f := &flatOps{base: base, grain: grain, rt: rt, ar: newArena()}
	_ = Strassen(f, viewOf(c), viewOf(a), viewOf(b), n, crossover) // flatOps returns no error
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

// flatOps is the flat-slice backend of Strassen and classic: base
// blocks through core.DisjointBlock, temporaries from the arena, and
// classical quadrants forked on rt above grain (rt nil: serial).
type flatOps struct {
	base, grain int
	rt          *par.Runtime
	ar          *arena
}

func (f *flatOps) Quad(v fview, h int) (fview, fview, fview, fview) {
	return v, v.sub(0, h), v.sub(h, 0), v.sub(h, h)
}

func (f *flatOps) Get(h int) fview    { return fview{d: f.ar.get(h), stride: h} }
func (f *flatOps) Put(h int, v fview) { f.ar.put(h, v.d) }

func (f *flatOps) Add(dst, x, y fview, s int) error {
	for i := 0; i < s; i++ {
		d, xr, yr := dst.row(i, s), x.row(i, s), y.row(i, s)
		for j, xv := range xr {
			d[j] = xv + yr[j]
		}
	}
	return nil
}

func (f *flatOps) Sub(dst, x, y fview, s int) error {
	for i := 0; i < s; i++ {
		d, xr, yr := dst.row(i, s), x.row(i, s), y.row(i, s)
		for j, xv := range xr {
			d[j] = xv - yr[j]
		}
	}
	return nil
}

// Leaf roots each classical leaf's forks on rt: the Winograd chain
// above it runs serially.
func (f *flatOps) Leaf(c, a, b fview, s int) error {
	for i := 0; i < s; i++ {
		clear(c.row(i, s))
	}
	classic(f, par.Or(f.rt).Root(), c, a, b, s)
	return nil
}

func (f *flatOps) Peel(c, a, b fview, s int) error {
	f.peel(c, a, b, s, true)
	return nil
}

func (f *flatOps) block(c, a, b fview, s int) bool {
	if s > f.base {
		return false
	}
	core.DisjointBlock[float64](core.MulAdd[float64]{}, core.Full{},
		c.d, c.stride, a.d, a.stride, b.d, b.stride, b.d, b.stride, s)
	return true
}

func (f *flatOps) fork(cx par.Ctx, s int, tasks ...func(par.Ctx)) {
	if f.rt != nil && s > f.grain {
		cx.Do(tasks...)
		return
	}
	for _, t := range tasks {
		t(cx)
	}
}

// peel applies the peeled contributions of an odd side s = m+1 after
// the even m×m product: the k = m rank-1 term into the leading block
// (ascending-k order is preserved — every k < m contribution was
// already applied), then the peeled column j = m and row i = m as full
// dot products. overwrite selects product semantics for the peeled
// row/column (their cells received no contribution from the leading
// product); the rank-1 term always accumulates.
func (f *flatOps) peel(c, a, b fview, s int, overwrite bool) {
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
		clear(cm)
	}
	for k, u := range am {
		br := b.row(k, s)
		for j, v := range br {
			t := u * v
			cm[j] += t
		}
	}
}

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
