package core

// Fused update ops. The engines' hot loops pay one indirect UpdateFunc
// call per element on top of the flat-slice addressing of fastpath.go —
// the dominant remaining constant against tight iterative kernels
// (§4.2 of the paper reaches competitive constants only with them). An Op bundles the update function with optional
// closed-form block kernels the engines can substitute for the whole
// base case: the indirect call disappears, the update arithmetic sits
// inline in the loop, and the compiler keeps the operands in registers.
//
// The dispatch contract, enforced by the differential tests in
// fused_test.go: a fused kernel must apply the same updates, in the
// same order, reading the same cell states, with the same
// floating-point rounding sequence, as the generic kernel running the
// op's Func — outputs are bit-identical, so callers can switch freely
// between the generic oracle and the fused kernels. Per cell the
// updates run in ascending k, each rounded as in Func; no kernel
// reassociates a sum. Every product is therefore rounded by an
// explicit conversion, x + T(u*v): the Go spec lets an implementation
// fuse a multiply and an add into one FMA (one rounding instead of
// two), even across statements through a temporary, and an explicit
// floating-point conversion is the construct that forbids it. amd64
// never fuses, so there the conversion compiles to nothing; on arm64
// it keeps FMULD and FADDD/FSUBD where FMADDD/FMSUBD would appear.
//
// A plain UpdateFunc is itself an Op (Func returns the function), so
// every engine accepts either; unknown ops and wrapper grids simply run
// the flat or generic path.

// Op is an update function bundled with optional fused kernels. Engines
// take an Op; pass an UpdateFunc directly for the generic treatment or
// one of the built-in ops (MinPlus, MulAdd, GaussElim, LUFactor,
// Closure) to let base cases run closed-form. Implementations may
// additionally satisfy BlockKerneler and DisjointKerneler.
type Op[T any] interface {
	// Func returns the update f the generic and flat paths call per
	// element; it is the semantic definition of the op.
	Func() UpdateFunc[T]
}

// Func implements Op: a bare update function is an op with no fused
// kernels.
func (f UpdateFunc[T]) Func() UpdateFunc[T] { return f }

// BlockKerneler is an Op with a closed-form kernel for the in-place
// base case shared by RunGEP, RunIGEP, RunABCD and the C-GEP engines'
// I-GEP-shaped recursion (X, U, V, W all inside the one matrix).
type BlockKerneler[T any] interface {
	Op[T]
	// BlockKernel executes the base-case block [i0,i0+s)×[j0,j0+s) for
	// the k-range [k0,k0+s) over the row-major backing slice, exactly as
	// igepKernelFlat would with Func. It returns false to decline (for
	// example when rg is nil and the kernel has no per-element membership
	// path); the caller then falls back to the flat kernel.
	BlockKernel(data []T, stride int, rg Ranger, i0, j0, k0, s int) bool
}

// DisjointKerneler is an Op with a closed-form kernel for RunDisjoint's
// base case, where X is written and U, V, W are read-only and disjoint
// from X (the all-D recursion of matrix multiplication).
type DisjointKerneler[T any] interface {
	Op[T]
	// DisjointKernel executes X[i,j] ← f(X[i,j], U[i,k], V[k,j], W[k,k])
	// over the block [xi,xi+s)×[xj,xj+s)×[k0,k0+s), with each grid given
	// as its row-major backing slice and stride. Returns false to
	// decline, as in BlockKernel.
	DisjointKernel(x []T, xs int, u []T, us int, v []T, vs int, w []T, ws int, rg Ranger, xi, xj, k0, s int) bool
}

// Real is the constraint of the built-in numeric ops: any ordered
// numeric type the update arithmetic (+, *, /, <) is defined on.
type Real interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// MinPlus is the Floyd-Warshall op: f(x,u,v,w) = min(x, u+v). Its
// fused kernels hoist u = c[i,k] out of the j loop and relax whole row
// segments with minPlusRow; min is insensitive to the w argument, so
// no pivot handling is needed beyond the register reload at j == k.
type MinPlus[T Real] struct{}

// Func implements Op.
func (MinPlus[T]) Func() UpdateFunc[T] {
	return func(_, _, _ int, x, u, v, _ T) T {
		if d := u + v; d < x {
			return d
		}
		return x
	}
}

// BlockKernel implements BlockKerneler. The loop structure mirrors
// igepKernelFlatRange exactly — clamp the Ranger interval, split at
// j == k, reload u after the pivot-column update — so reads and writes
// are element-for-element those of the generic path.
func (MinPlus[T]) BlockKernel(data []T, stride int, rg Ranger, i0, j0, k0, s int) bool {
	if rg == nil {
		return false
	}
	for k := k0; k < k0+s; k++ {
		ck := data[k*stride:]
		for i := i0; i < i0+s; i++ {
			lo, hi := clampJRange(rg, i, k, j0, s)
			if lo >= hi {
				continue
			}
			ci := data[i*stride:]
			u := ci[k]
			if k >= lo && k < hi {
				minPlusRow(ci[lo:k], ck[lo:k], u)
				// j == k: x = u and v = c[k,k]; the write may change u.
				if d := u + ck[k]; d < u {
					ci[k] = d
					u = d
				}
				lo = k + 1
			}
			minPlusRow(ci[lo:hi], ck[lo:hi], u)
		}
	}
	return true
}

// DisjointKernel implements DisjointKerneler: the disjoint-grid variant
// needs no j == k split (only X is written), so u = U[i,k] is
// loop-invariant across the whole row segment. A block fully covered
// by the update set runs minPlusRows; a partially covered one takes
// the Ranger interval per (i,k).
func (MinPlus[T]) DisjointKernel(x []T, xs int, u []T, us int, v []T, vs int, _ []T, _ int, rg Ranger, xi, xj, k0, s int) bool {
	if rg == nil {
		return false
	}
	if blockCovered(rg, xi, xj, k0, s) {
		minPlusRows(x, xs, u, us, v, vs, xi, xj, k0, s)
		return true
	}
	for k := k0; k < k0+s; k++ {
		vk := v[k*vs:]
		for i := xi; i < xi+s; i++ {
			if lo, hi := clampJRange(rg, i, k, xj, s); lo < hi {
				minPlusRow(x[i*xs+lo:i*xs+hi], vk[lo:hi], u[i*us+k])
			}
		}
	}
	return true
}

// minPlusRows is the covered-block min-plus kernel: one X row at a
// time, unrolled 4 ways over k, so each cell is relaxed by four k in
// ascending order while held in a register and stored once per four k
// (storing an unchanged value is harmless: only X is written).
func minPlusRows[T Real](x []T, xs int, u []T, us int, v []T, vs int, xi, xj, k0, s int) {
	for i := xi; i < xi+s; i++ {
		xr := x[i*xs+xj:][:s]
		ur := u[i*us+k0:][:s]
		k := 0
		for ; k+3 < s; k += 4 {
			a0, a1, a2, a3 := ur[k], ur[k+1], ur[k+2], ur[k+3]
			b0 := v[(k0+k)*vs+xj:][:len(xr)]
			b1 := v[(k0+k+1)*vs+xj:][:len(xr)]
			b2 := v[(k0+k+2)*vs+xj:][:len(xr)]
			b3 := v[(k0+k+3)*vs+xj:][:len(xr)]
			for j, c := range xr {
				if d := a0 + b0[j]; d < c {
					c = d
				}
				if d := a1 + b1[j]; d < c {
					c = d
				}
				if d := a2 + b2[j]; d < c {
					c = d
				}
				if d := a3 + b3[j]; d < c {
					c = d
				}
				xr[j] = c
			}
		}
		for ; k < s; k++ {
			minPlusRow(xr, v[(k0+k)*vs+xj:][:s], ur[k])
		}
	}
}

// MulAdd is the matrix-multiplication op: f(x,u,v,w) = x + u·v with
// the product rounded before the add (two roundings — the generic
// semantics; see the package comment on FMA). Its disjoint kernel runs
// mulAddRows, a row kernel unrolled over k, when the block is fully
// covered by the update set, and a rank-1 loop otherwise.
type MulAdd[T Real] struct{}

// Func implements Op.
func (MulAdd[T]) Func() UpdateFunc[T] {
	return func(_, _, _ int, x, u, v, _ T) T {
		return x + T(u*v)
	}
}

// BlockKernel implements BlockKerneler for the in-place engines
// (multiplication normally runs through RunDisjoint, but the in-place
// form c ← c + c·c is a valid GEP instance and keeps the op usable with
// every engine).
func (MulAdd[T]) BlockKernel(data []T, stride int, rg Ranger, i0, j0, k0, s int) bool {
	if rg == nil {
		return false
	}
	for k := k0; k < k0+s; k++ {
		ck := data[k*stride:]
		for i := i0; i < i0+s; i++ {
			lo, hi := clampJRange(rg, i, k, j0, s)
			if lo >= hi {
				continue
			}
			ci := data[i*stride:]
			u := ci[k]
			if k >= lo && k < hi {
				addRow(ci[lo:k], ck[lo:k], u)
				// j == k: x = u and v = c[k,k]; the write changes u.
				ci[k] = u + T(u*ck[k])
				u = ci[k]
				lo = k + 1
			}
			addRow(ci[lo:hi], ck[lo:hi], u)
		}
	}
	return true
}

// DisjointKernel implements DisjointKerneler. A block fully covered by
// the update set runs mulAddRows; a partially covered one takes the
// rank-1 loop, which handles the Ranger interval per (i,k).
func (MulAdd[T]) DisjointKernel(x []T, xs int, u []T, us int, v []T, vs int, _ []T, _ int, rg Ranger, xi, xj, k0, s int) bool {
	if rg == nil {
		return false
	}
	if blockCovered(rg, xi, xj, k0, s) {
		mulAddRows(x, xs, u, us, v, vs, xi, xj, k0, s)
		return true
	}
	for k := k0; k < k0+s; k++ {
		vk := v[k*vs:]
		for i := xi; i < xi+s; i++ {
			if lo, hi := clampJRange(rg, i, k, xj, s); lo < hi {
				addRow(x[i*xs+lo:i*xs+hi], vk[lo:hi], u[i*us+k])
			}
		}
	}
	return true
}

// mulAddRows is the covered-block multiply kernel:
// X[i, xj:xj+s] += U[i, k0:k0+s]·V[k0:k0+s, xj:xj+s], two X rows at a
// time, unrolled 4 ways over k. Each cell accumulates
// ((x + a0·b0) + a1·b1) + a2·b2 + a3·b3 with every product and sum
// rounded, in strict k order — exactly the generic path's sequence —
// while the X rows are loaded and stored once per four values of k
// instead of once per k, and each V element loaded serves both rows.
// The dependence chain per cell is four adds per four k, as long as a
// reassociated a0·b0 + a1·b1 + a2·b2 + a3·b3 sum; the independent cells
// of the rows overlap those chains.
func mulAddRows[T Real](x []T, xs int, u []T, us int, v []T, vs int, xi, xj, k0, s int) {
	i := xi
	for ; i+1 < xi+s; i += 2 {
		xr0 := x[i*xs+xj:][:s]
		xr1 := x[(i+1)*xs+xj:][:s]
		ur0 := u[i*us+k0:][:s]
		ur1 := u[(i+1)*us+k0:][:s]
		k := 0
		for ; k+3 < s; k += 4 {
			a00, a01, a02, a03 := ur0[k], ur0[k+1], ur0[k+2], ur0[k+3]
			a10, a11, a12, a13 := ur1[k], ur1[k+1], ur1[k+2], ur1[k+3]
			b0 := v[(k0+k)*vs+xj:][:len(xr0)]
			b1 := v[(k0+k+1)*vs+xj:][:len(xr0)]
			b2 := v[(k0+k+2)*vs+xj:][:len(xr0)]
			b3 := v[(k0+k+3)*vs+xj:][:len(xr0)]
			xr1 := xr1[:len(xr0)]
			for j, c0 := range xr0 {
				c1 := xr1[j]
				b := b0[j]
				c0 += T(a00 * b)
				c1 += T(a10 * b)
				b = b1[j]
				c0 += T(a01 * b)
				c1 += T(a11 * b)
				b = b2[j]
				c0 += T(a02 * b)
				c1 += T(a12 * b)
				b = b3[j]
				c0 += T(a03 * b)
				c1 += T(a13 * b)
				xr0[j], xr1[j] = c0, c1
			}
		}
		for ; k < s; k++ {
			b := v[(k0+k)*vs+xj:][:s]
			addRow(xr0, b, ur0[k])
			addRow(xr1, b, ur1[k])
		}
	}
	if i < xi+s { // odd side: the last row alone
		xr := x[i*xs+xj:][:s]
		for k, a := range u[i*us+k0:][:s] {
			addRow(xr, v[(k0+k)*vs+xj:][:s], a)
		}
	}
}

// MulSub is the multiply-subtract op: f(x,u,v,w) = x − u·v with the
// product rounded before the subtraction (two roundings, as with
// MulAdd). It is the Schur-complement update C −= L·U: blocked
// factorizations with pivoting (linalg.FactorCA) issue it against
// disjoint panels, and it is the whole update of an in-place LU D
// block (see LUFactor). The disjoint kernel mirrors MulAdd's:
// mulSubRows on fully covered blocks, a rank-1 loop otherwise.
type MulSub[T Real] struct{}

// Func implements Op.
func (MulSub[T]) Func() UpdateFunc[T] {
	return func(_, _, _ int, x, u, v, _ T) T {
		return x - T(u*v)
	}
}

// DisjointKernel implements DisjointKerneler; see MulAdd.DisjointKernel
// for the dispatch structure it mirrors.
func (MulSub[T]) DisjointKernel(x []T, xs int, u []T, us int, v []T, vs int, _ []T, _ int, rg Ranger, xi, xj, k0, s int) bool {
	if rg == nil {
		return false
	}
	if blockCovered(rg, xi, xj, k0, s) {
		mulSubRows(x, xs, u, us, v, vs, xi, xj, k0, s)
		return true
	}
	for k := k0; k < k0+s; k++ {
		vk := v[k*vs:]
		for i := xi; i < xi+s; i++ {
			if lo, hi := clampJRange(rg, i, k, xj, s); lo < hi {
				subRow(x[i*xs+lo:i*xs+hi], vk[lo:hi], u[i*us+k])
			}
		}
	}
	return true
}

// mulSubRows is mulAddRows with subtracting accumulation:
// X[i, xj:xj+s] −= U[i, k0:k0+s]·V[k0:k0+s, xj:xj+s], in strict k
// order per cell.
func mulSubRows[T Real](x []T, xs int, u []T, us int, v []T, vs int, xi, xj, k0, s int) {
	i := xi
	for ; i+1 < xi+s; i += 2 {
		xr0 := x[i*xs+xj:][:s]
		xr1 := x[(i+1)*xs+xj:][:s]
		ur0 := u[i*us+k0:][:s]
		ur1 := u[(i+1)*us+k0:][:s]
		k := 0
		for ; k+3 < s; k += 4 {
			a00, a01, a02, a03 := ur0[k], ur0[k+1], ur0[k+2], ur0[k+3]
			a10, a11, a12, a13 := ur1[k], ur1[k+1], ur1[k+2], ur1[k+3]
			b0 := v[(k0+k)*vs+xj:][:len(xr0)]
			b1 := v[(k0+k+1)*vs+xj:][:len(xr0)]
			b2 := v[(k0+k+2)*vs+xj:][:len(xr0)]
			b3 := v[(k0+k+3)*vs+xj:][:len(xr0)]
			xr1 := xr1[:len(xr0)]
			for j, c0 := range xr0 {
				c1 := xr1[j]
				b := b0[j]
				c0 -= T(a00 * b)
				c1 -= T(a10 * b)
				b = b1[j]
				c0 -= T(a01 * b)
				c1 -= T(a11 * b)
				b = b2[j]
				c0 -= T(a02 * b)
				c1 -= T(a12 * b)
				b = b3[j]
				c0 -= T(a03 * b)
				c1 -= T(a13 * b)
				xr0[j], xr1[j] = c0, c1
			}
		}
		for ; k < s; k++ {
			b := v[(k0+k)*vs+xj:][:s]
			subRow(xr0, b, ur0[k])
			subRow(xr1, b, ur1[k])
		}
	}
	if i < xi+s { // odd side: the last row alone
		xr := x[i*xs+xj:][:s]
		for k, a := range u[i*us+k0:][:s] {
			subRow(xr, v[(k0+k)*vs+xj:][:s], a)
		}
	}
}

// GaussElim is the Gaussian-elimination op:
// f(x,u,v,w) = x - (u/w)·v, two roundings after the division exactly as
// in Func. The fused kernel hoists the multiplier m = u/w out of the j
// loop — the same operands divided once instead of per element, so the
// quotient is bit-identical.
type GaussElim[T Real] struct{}

// Func implements Op.
func (GaussElim[T]) Func() UpdateFunc[T] {
	return func(_, _, _ int, x, u, v, w T) T {
		m := u / w
		return x - T(m*v)
	}
}

// BlockKernel implements BlockKerneler. With the Gaussian set the
// interval never contains j == k (members need k < j) and never has
// i == k (members need k < i), but the split is kept so the kernel
// stays exact for any Ranger it meets.
func (GaussElim[T]) BlockKernel(data []T, stride int, rg Ranger, i0, j0, k0, s int) bool {
	if rg == nil {
		return false
	}
	for k := k0; k < k0+s; k++ {
		ck := data[k*stride:]
		for i := i0; i < i0+s; i++ {
			lo, hi := clampJRange(rg, i, k, j0, s)
			if lo >= hi {
				continue
			}
			ci := data[i*stride:]
			u, w := ci[k], ck[k]
			if k >= lo && k < hi {
				m := u / w
				subRow(ci[lo:k], ck[lo:k], m)
				// j == k: x = u, v = w; the write changes u (and w when
				// i == k, as ci and ck are then the same row).
				ci[k] = u - T(m*w)
				u, w = ci[k], ck[k]
				lo = k + 1
			}
			subRow(ci[lo:hi], ck[lo:hi], u/w)
		}
	}
	return true
}

// LUFactor is the LU-decomposition op for the LU set:
//
//	f(x,u,v,w) = x/w      if j == k  (stores the multiplier l_ik)
//	             x - u·v  if j != k  (elimination with the multiplier)
//
// The fused kernel computes the multiplier at the interval's j == k
// head and then runs the elimination with u = l_ik registered. An
// in-place D block has no j == k update, so there the LU update is
// MulSub's and runs MulSub's disjoint kernel (see dKernelOf).
type LUFactor[T Real] struct{}

// Func implements Op.
func (LUFactor[T]) Func() UpdateFunc[T] {
	return func(_, j, k int, x, u, v, w T) T {
		if j == k {
			return x / w
		}
		return x - T(u*v)
	}
}

// offPivot implements offPivoter: off the pivot column the LU update
// is x − u·v, MulSub's.
func (LUFactor[T]) offPivot() DisjointKerneler[T] { return MulSub[T]{} }

// BlockKernel implements BlockKerneler.
func (LUFactor[T]) BlockKernel(data []T, stride int, rg Ranger, i0, j0, k0, s int) bool {
	if rg == nil {
		return false
	}
	for k := k0; k < k0+s; k++ {
		ck := data[k*stride:]
		for i := i0; i < i0+s; i++ {
			lo, hi := clampJRange(rg, i, k, j0, s)
			if lo >= hi {
				continue
			}
			ci := data[i*stride:]
			u := ci[k]
			if k >= lo && k < hi {
				subRow(ci[lo:k], ck[lo:k], u)
				// j == k: x = u, so the multiplier is u/w. The
				// elimination phase below no longer needs w.
				ci[k] = u / ck[k]
				u = ci[k]
				lo = k + 1
			}
			subRow(ci[lo:hi], ck[lo:hi], u)
		}
	}
	return true
}

// Row helpers of the fused kernels: one update per element of vr over
// the matching prefix of xr, in ascending j. The re-slice to len(vr)
// lets the compiler drop every bounds check in the loop. xr and vr may
// be the same row (an in-place block with i == k): each element is
// read right before its own update, as in the generic path.

// minPlusRow sets xr[j] = min(xr[j], u + vr[j]).
func minPlusRow[T Real](xr, vr []T, u T) {
	xr = xr[:len(vr)]
	for j, v := range vr {
		if d := u + v; d < xr[j] {
			xr[j] = d
		}
	}
}

// addRow sets xr[j] = xr[j] + round(u·vr[j]).
func addRow[T Real](xr, vr []T, u T) {
	xr = xr[:len(vr)]
	for j, v := range vr {
		xr[j] += T(u * v)
	}
}

// subRow sets xr[j] = xr[j] − round(u·vr[j]).
func subRow[T Real](xr, vr []T, u T) {
	xr = xr[:len(vr)]
	for j, v := range vr {
		xr[j] -= T(u * v)
	}
}

// clampJRange returns the set's column interval for (i, k) clipped to
// the block's columns [j0, j0+s).
func clampJRange(rg Ranger, i, k, j0, s int) (lo, hi int) {
	lo, hi = rg.JRange(i, k)
	return max(lo, j0), min(hi, j0+s)
}

// blockCovered reports whether the update set contains every ⟨i,j,k⟩ of
// the block — the precondition of the covered-block kernels. The
// standard sets answer in O(1) (a tile's shiftSet by translating the
// block); other Rangers are scanned per (i,k), an O(s²) test against
// the block's O(s³) work.
func blockCovered(rg Ranger, xi, xj, k0, s int) bool {
	kMax := k0 + s - 1
	switch r := rg.(type) {
	case Full:
		return true
	case LU:
		return kMax < xi && kMax <= xj
	case Gaussian:
		return kMax < xi && kMax < xj
	case shiftSet:
		return blockCovered(r.rg, xi+r.di, xj+r.dj, k0+r.dk, s)
	}
	for k := k0; k < k0+s; k++ {
		for i := xi; i < xi+s; i++ {
			lo, hi := rg.JRange(i, k)
			if lo > xj || hi < xj+s {
				return false
			}
		}
	}
	return true
}

// Closure is the transitive-closure op over bool:
// f(x,u,v,w) = x ∨ (u ∧ v) — Warshall's algorithm. The fused kernel
// skips whole rows with u = c[i,k] false (every update then returns x
// unchanged) and stores only rising edges; cell values are identical to
// the generic path's.
type Closure struct{}

// Func implements Op.
func (Closure) Func() UpdateFunc[bool] {
	return func(_, _, _ int, x, u, v, _ bool) bool { return x || (u && v) }
}

// BlockKernel implements BlockKerneler. No j == k split is needed:
// within a row, u = c[i,k] can only be rewritten at j == k with
// x ∨ (u ∧ c[k,k]) = u, its own value.
func (Closure) BlockKernel(data []bool, stride int, rg Ranger, i0, j0, k0, s int) bool {
	if rg == nil {
		return false
	}
	for k := k0; k < k0+s; k++ {
		ck := data[k*stride:]
		for i := i0; i < i0+s; i++ {
			lo, hi := clampJRange(rg, i, k, j0, s)
			if lo >= hi {
				continue
			}
			ci := data[i*stride:]
			if !ci[k] {
				continue
			}
			for j := lo; j < hi; j++ {
				if ck[j] {
					ci[j] = true
				}
			}
		}
	}
	return true
}

// Compile-time checks: the built-in ops provide the kernels the
// dispatch layer looks for, and a bare UpdateFunc is an Op.
var (
	_ BlockKerneler[float64]    = MinPlus[float64]{}
	_ DisjointKerneler[float64] = MinPlus[float64]{}
	_ BlockKerneler[int64]      = MulAdd[int64]{}
	_ DisjointKerneler[int64]   = MulAdd[int64]{}
	_ DisjointKerneler[float64] = MulSub[float64]{}
	_ BlockKerneler[float64]    = GaussElim[float64]{}
	_ BlockKerneler[float64]    = LUFactor[float64]{}
	_ BlockKerneler[bool]       = Closure{}
	_ Op[int64]                 = UpdateFunc[int64](nil)
)
