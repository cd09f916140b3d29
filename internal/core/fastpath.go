package core

import "gep/internal/matrix"

// Flat-slice fast-path kernels. The generic engines address the matrix
// through the Grid interface, which costs an interface dispatch and a
// bounds check per element access, and consult set.Contains — another
// interface call — per ⟨i,j,k⟩. The recursion already achieves the
// optimal O(n³/(B√M)) miss bound; these kernels close most of the
// remaining per-element constant-factor gap to tight iterative loops
// (§4.2's "iterative kernel quality" concern), and the fused kernels
// of ops.go close the rest:
//
//   - when the grid is a *matrix.Dense[T] (detected once per run via
//     matrix.Flat), base-case blocks run over the row-major backing
//     slice with hoisted row slices for c[i,*] and c[k,*];
//   - when the set implements Ranger, the per-element Contains test is
//     replaced by a per-(k,i) column interval, and the registered
//     values u = c[i,k], w = c[k,k] are hoisted out of the j loop;
//   - everything else falls back to the generic path, so wrapper grids
//     (cache simulators, tracers, out-of-core stores) and exotic sets
//     keep their exact semantics.
//
// Every fast-path kernel applies the same updates, in the same order,
// reading the same cell states, as its generic counterpart — outputs
// are bit-identical (asserted by the differential tests in
// fastpath_test.go).

// baseCase dispatches one base-case block of the in-place engines in
// the kernel-hierarchy order fused → flat → generic: the op's fused
// closed-form kernel when one bound (and accepts the block), the
// flat-slice kernel with the indirect per-element call when storage is
// dense, and the Grid-interface kernel otherwise. A D block goes to
// the op's disjoint kernel (see dKernelOf), every other block to its
// in-place block kernel. All tiers produce bit-identical results (see
// ops.go and the differential tests).
func baseCase[T any](c matrix.Grid[T], f UpdateFunc[T], set UpdateSet, cfg *config[T], i0, j0, k0, s int) {
	if cfg.baseHook != nil && cfg.baseHook(i0, j0, k0, s) {
		return
	}
	if cfg.bits != nil {
		if cfg.bitsOp != nil && cfg.bitsOp.BitsKernel(cfg.bits, cfg.ranger, cfg.tableWidth, i0, j0, k0, s) {
			return
		}
		igepKernel(c, f, set, i0, j0, k0, s)
		return
	}
	if d, st := cfg.flatData, cfg.flatStride; d != nil {
		if cfg.dOp != nil && i0 != k0 && j0 != k0 && cfg.dOp.DisjointKernel(d, st, d, st, d, st, d, st, cfg.ranger, i0, j0, k0, s) {
			kernelFusedCount.Inc()
			return
		}
		if cfg.blockOp != nil && cfg.blockOp.BlockKernel(d, st, cfg.ranger, i0, j0, k0, s) {
			kernelFusedCount.Inc()
			return
		}
		igepKernelFlat(d, st, cfg.ranger, f, set, i0, j0, k0, s)
		return
	}
	igepKernel(c, f, set, i0, j0, k0, s)
}

// offPivoter is an op whose update off the pivot row and column
// (i ≠ k, j ≠ k) has a disjoint kernel of its own: LUFactor, whose
// j == k division never occurs there.
type offPivoter[T any] interface {
	offPivot() DisjointKerneler[T]
}

// dKernelOf returns the fused kernel for the D blocks of an in-place
// run: base cases with i0 ≠ k0 and j0 ≠ k0 (input conditions 2.1 make
// the row and column ranges then disjoint from the k-range). There
// X = c[I,J] is written while U = c[I,K], V = c[K,J] and W = c[K,K] lie
// outside X and stay fixed, which is RunDisjoint's base case, and no
// update has i == k or j == k. It is the one place the in-core engines
// (bindFast) and the tile kernel (TileKernel) pick that kernel. nil
// when the op has none.
func dKernelOf[T any](op Op[T]) DisjointKerneler[T] {
	if p, ok := op.(offPivoter[T]); ok {
		return p.offPivot()
	}
	dk, _ := op.(DisjointKerneler[T])
	return dk
}

// igepKernelFlat is igepKernel over flat row-major storage. rg may be
// nil, in which case membership is tested per element via set.
func igepKernelFlat[T any](data []T, stride int, rg Ranger, f UpdateFunc[T], set UpdateSet, i0, j0, k0, s int) {
	kernelFlatCount.Inc()
	if rg != nil {
		igepKernelFlatRange(data, stride, rg, f, i0, j0, k0, s)
		return
	}
	for k := k0; k < k0+s; k++ {
		ck := data[k*stride:]
		for i := i0; i < i0+s; i++ {
			ci := data[i*stride:]
			for j := j0; j < j0+s; j++ {
				if set.Contains(i, j, k) {
					ci[j] = f(i, j, k, ci[j], ci[k], ck[j], ck[k])
				}
			}
		}
	}
}

// igepKernelFlatRange is the fully hoisted kernel for Ranger sets. For
// each (k, i) the member columns form the interval [lo, hi); within it
// the only cells the j loop writes are row i's columns in [lo, hi), so
// u = c[i,k] and w = c[k,k] are loop-invariant except across the j == k
// update (which writes column k of row i, and — when i == k — the
// pivot cell itself). The loop therefore splits at j == k and reloads
// both registers after it, preserving bit-identical reads with the
// per-element generic kernel.
func igepKernelFlatRange[T any](data []T, stride int, rg Ranger, f UpdateFunc[T], i0, j0, k0, s int) {
	for k := k0; k < k0+s; k++ {
		ck := data[k*stride:]
		for i := i0; i < i0+s; i++ {
			lo, hi := clampJRange(rg, i, k, j0, s)
			if lo >= hi {
				continue
			}
			ci := data[i*stride:]
			u, w := ci[k], ck[k]
			j := lo
			if k >= lo && k < hi {
				for ; j < k; j++ {
					ci[j] = f(i, j, k, ci[j], u, ck[j], w)
				}
				// j == k: x = c[i,k] = u and v = c[k,k] = w (no prior
				// iteration of this row touched column k or the pivot).
				ci[k] = f(i, k, k, u, u, w, w)
				u, w = ci[k], ck[k]
				j = k + 1
			}
			for ; j < hi; j++ {
				ci[j] = f(i, j, k, ci[j], u, ck[j], w)
			}
		}
	}
}

// flatRect is a resolved flat view of a matrix.Rect: concrete methods
// the compiler can inline, with plain slice indexing instead of
// interface dispatch. ok reports whether the resolution succeeded.
type flatRect[T any] struct {
	data   []T
	stride int
	ok     bool
}

func (r flatRect[T]) at(i, j int) T     { return r.data[i*r.stride+j] }
func (r flatRect[T]) set(i, j int, v T) { r.data[i*r.stride+j] = v }

// row returns the suffix slice starting at row i's first column.
func (r flatRect[T]) row(i int) []T { return r.data[i*r.stride:] }

// flatOf resolves a Grid's flat view (ok=false for wrapper grids).
func flatOf[T any](g matrix.Grid[T]) flatRect[T] {
	data, stride, ok := matrix.Flat[T](g)
	return flatRect[T]{data: data, stride: stride, ok: ok}
}

// flatRectOf resolves a Rect's flat view (ok=false for non-Dense aux).
func flatRectOf[T any](r matrix.Rect[T]) flatRect[T] {
	data, stride, ok := matrix.FlatRect[T](r)
	return flatRect[T]{data: data, stride: stride, ok: ok}
}

// kernelFlat is the disjoint-grid (RunDisjoint) base case over flat
// storage: X is written, U, V, W are read-only and disjoint from X, so
// the u = U[i,k] and w = W[k,k] registers are loop-invariant across
// the whole j loop, with no split needed. Reads match the generic path
// exactly because the generic path's per-element re-reads can never
// observe a change (only X is written).
func (st *disjointState[T]) kernelFlat(xi, xj, k0, s int) {
	kernelFlatCount.Inc()
	rg := st.cfg.ranger
	for k := k0; k < k0+s; k++ {
		vk := st.fv.row(k)
		w := st.fw.at(k, k)
		for i := xi; i < xi+s; i++ {
			xrow := st.fx.row(i)
			u := st.fu.at(i, k)
			if rg != nil {
				lo, hi := clampJRange(rg, i, k, xj, s)
				for j := lo; j < hi; j++ {
					xrow[j] = st.f(i, j, k, xrow[j], u, vk[j], w)
				}
				continue
			}
			for j := xj; j < xj+s; j++ {
				if st.set.Contains(i, j, k) {
					xrow[j] = st.f(i, j, k, xrow[j], u, vk[j], w)
				}
			}
		}
	}
}
