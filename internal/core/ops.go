package core

// Fused update ops. The engines' hot loops pay one indirect UpdateFunc
// call per element on top of the flat-slice addressing of fastpath.go —
// the dominant remaining constant against tight iterative kernels
// (§4.2 of the paper reaches competitive constants only with them). An
// Op bundles the update function with an optional closed-form kernel
// the dispatcher (fastpath.go) substitutes for the whole base case:
// the indirect call disappears, the update arithmetic sits inline in
// the loop, and the compiler keeps the operands in registers.
//
// Each built-in op has one kernel, Kernel, for every base case of
// every engine: in-place blocks of any overlap (A, B, C, D), resident
// out-of-core tiles and the disjoint blocks of RunDisjoint and the
// Strassen and CALU leaves. It sees X, U, V and W as four row-major
// operands with global indices and a flag saying whether X is
// disjoint from the other three, and has at most two loop structures:
// a row loop split at the pivot column (see span), exact for any
// overlap, and — for MinPlus, MulAdd, MulSub and LUFactor — a row
// kernel unrolled over k for disjoint blocks the update set fully
// covers.
//
// The dispatch contract, enforced by the differential tests in
// fused_test.go and tiles_test.go: a fused kernel must apply the same
// updates, in the same order, reading the same cell states, with the
// same floating-point rounding sequence, as the flat loop running the
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
// every engine accepts either; unknown ops, sets without a Ranger and
// wrapper grids simply run the flat or Grid loop.

// Op is an update function bundled with an optional fused kernel.
// Engines take an Op; pass an UpdateFunc directly for the generic
// treatment or one of the built-in ops (MinPlus, MulAdd, MulSub,
// GaussElim, LUFactor, Closure, GF2Elim) to let base cases run
// closed-form. Implementations may additionally satisfy Kerneler.
type Op[T any] interface {
	// Func returns the update f the flat and Grid loops call per
	// element; it is the semantic definition of the op.
	Func() UpdateFunc[T]
}

// Func implements Op: a bare update function is an op with no fused
// kernel.
func (f UpdateFunc[T]) Func() UpdateFunc[T] { return f }

// Kerneler is an Op with a closed-form base-case kernel.
type Kerneler[T any] interface {
	Op[T]
	// Kernel executes the block o for the update set whose column
	// intervals rg gives, exactly as the flat loop would with Func.
	Kernel(o Operands[T], rg Ranger)
}

// Operands is one base-case block as a kernel sees it: the update box
// [I,I+S)×[J,J+S) with k-range [K,K+S), and its four operands as
// row-major views starting at the block. Cell (i,j) of X lives at
// X[(i-I)*XS + j-J], U[i,k] at U[(i-I)*US + k-K], V[k,j] at
// V[(k-K)*VS + j-J] and W[k,k] at W[(k-K)*WS + k-K]; i, j and k are
// global, so an op's Func and the update set see the true indices.
type Operands[T any] struct {
	Block
	X, U, V, W     []T
	XS, US, VS, WS int
	// Disjoint reports that X shares no cell with U, V or W: every
	// RunDisjoint block and the in-place D blocks (I ∩ K = J ∩ K = ∅).
	// Otherwise X is U when J = K and X is V when I = K (input
	// conditions 2.1), and a kernel's writes to X are seen by its
	// later reads of U, V and W.
	Disjoint bool
}

// span clips one row's member columns [lo, hi) to the block's columns
// [j0, j0+s) and splits them after the pivot column k, returning
// block-local columns 0 <= lo <= mid <= hi <= s, with mid one past the
// pivot when it lies in the interval and mid = lo otherwise. The pivot
// write is the only one in the row that can change u = U[i,k] (X is U
// when J = K) or w = W[k,k] (the pivot cell itself on a diagonal
// block), so the kernels hoist both over [lo, mid) and re-read them
// for [mid, hi). The pivot cell is read from X and V like any other —
// the same cells as U and W when they overlap — so one loop serves
// in-place and disjoint operands alike.
func span(lo, hi, k, j0, s int) (int, int, int) {
	lo = min(max(lo, j0), j0+s)
	hi = max(min(hi, j0+s), lo)
	mid := lo
	if lo <= k && k < hi {
		mid = k + 1
	}
	return lo - j0, mid - j0, hi - j0
}

// Real is the constraint of the built-in numeric ops: any ordered
// numeric type the update arithmetic (+, *, /, <) is defined on.
type Real interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// MinPlus is the Floyd-Warshall op: f(x,u,v,w) = min(x, u+v). Its
// kernel relaxes whole row segments with minPlusRow, u = U[i,k]
// hoisted; min is insensitive to the w argument.
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

// Kernel implements Kerneler: minPlusRows on covered disjoint blocks,
// the split row loop otherwise.
func (MinPlus[T]) Kernel(o Operands[T], rg Ranger) {
	if o.Disjoint && blockCovered(rg, o.I, o.J, o.K, o.S) {
		minPlusRows(o)
		return
	}
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			lo, hi := rg.JRange(o.I+i, gk)
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi, ui := o.X[i*o.XS:], o.U[i*o.US:]
			minPlusRow(xi[lo:mid], vk[lo:mid], ui[k])
			minPlusRow(xi[mid:hi], vk[mid:hi], ui[k])
		}
	}
}

// minPlusRows is the covered-block min-plus kernel: one X row at a
// time, unrolled 4 ways over k, so each cell is relaxed by four k in
// ascending order while held in a register and stored once per four k
// (storing an unchanged value is harmless: only X is written).
func minPlusRows[T Real](o Operands[T]) {
	x, u, v, s := o.X, o.U, o.V, o.S
	for i := 0; i < s; i++ {
		xr := x[i*o.XS:][:s]
		ur := u[i*o.US:][:s]
		k := 0
		for ; k+3 < s; k += 4 {
			a0, a1, a2, a3 := ur[k], ur[k+1], ur[k+2], ur[k+3]
			b0 := v[k*o.VS:][:len(xr)]
			b1 := v[(k+1)*o.VS:][:len(xr)]
			b2 := v[(k+2)*o.VS:][:len(xr)]
			b3 := v[(k+3)*o.VS:][:len(xr)]
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
			minPlusRow(xr, v[k*o.VS:][:s], ur[k])
		}
	}
}

// MulAdd is the matrix-multiplication op: f(x,u,v,w) = x + u·v with
// the product rounded before the add (two roundings — the generic
// semantics; see the package comment on FMA). Multiplication runs
// through RunDisjoint, but the in-place form c ← c + c·c is a valid
// GEP instance and keeps the op usable with every engine.
type MulAdd[T Real] struct{}

// Func implements Op.
func (MulAdd[T]) Func() UpdateFunc[T] {
	return func(_, _, _ int, x, u, v, _ T) T {
		return x + T(u*v)
	}
}

// Kernel implements Kerneler: mulAddRows on covered disjoint blocks,
// the split row loop otherwise.
func (MulAdd[T]) Kernel(o Operands[T], rg Ranger) {
	if o.Disjoint && blockCovered(rg, o.I, o.J, o.K, o.S) {
		mulAddRows(o)
		return
	}
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			lo, hi := rg.JRange(o.I+i, gk)
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi, ui := o.X[i*o.XS:], o.U[i*o.US:]
			addRow(xi[lo:mid], vk[lo:mid], ui[k])
			addRow(xi[mid:hi], vk[mid:hi], ui[k])
		}
	}
}

// mulAddRows is the covered-block multiply kernel: X += U·V, two X
// rows at a time, unrolled 4 ways over k. Each cell accumulates
// ((x + a0·b0) + a1·b1) + a2·b2 + a3·b3 with every product and sum
// rounded, in strict k order — exactly the generic path's sequence —
// while the X rows are loaded and stored once per four values of k
// instead of once per k, and each V element loaded serves both rows.
// The dependence chain per cell is four adds per four k, as long as a
// reassociated a0·b0 + a1·b1 + a2·b2 + a3·b3 sum; the independent cells
// of the rows overlap those chains.
func mulAddRows[T Real](o Operands[T]) {
	x, u, v, s := o.X, o.U, o.V, o.S
	i := 0
	for ; i+1 < s; i += 2 {
		xr0 := x[i*o.XS:][:s]
		xr1 := x[(i+1)*o.XS:][:s]
		ur0 := u[i*o.US:][:s]
		ur1 := u[(i+1)*o.US:][:s]
		k := 0
		for ; k+3 < s; k += 4 {
			a00, a01, a02, a03 := ur0[k], ur0[k+1], ur0[k+2], ur0[k+3]
			a10, a11, a12, a13 := ur1[k], ur1[k+1], ur1[k+2], ur1[k+3]
			b0 := v[k*o.VS:][:len(xr0)]
			b1 := v[(k+1)*o.VS:][:len(xr0)]
			b2 := v[(k+2)*o.VS:][:len(xr0)]
			b3 := v[(k+3)*o.VS:][:len(xr0)]
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
			b := v[k*o.VS:][:s]
			addRow(xr0, b, ur0[k])
			addRow(xr1, b, ur1[k])
		}
	}
	if i < s { // odd side: the last row alone
		xr := x[i*o.XS:][:s]
		for k, a := range u[i*o.US:][:s] {
			addRow(xr, v[k*o.VS:][:s], a)
		}
	}
}

// MulSub is the multiply-subtract op: f(x,u,v,w) = x − u·v with the
// product rounded before the subtraction (two roundings, as with
// MulAdd). It is the Schur-complement update C −= L·U: blocked
// factorizations with pivoting (linalg.FactorCA) issue it against
// disjoint panels, and it is the whole update of an in-place LU D
// block (see LUFactor). Its kernel mirrors MulAdd's.
type MulSub[T Real] struct{}

// Func implements Op.
func (MulSub[T]) Func() UpdateFunc[T] {
	return func(_, _, _ int, x, u, v, _ T) T {
		return x - T(u*v)
	}
}

// Kernel implements Kerneler: mulSubRows on covered disjoint blocks,
// the split row loop otherwise.
func (MulSub[T]) Kernel(o Operands[T], rg Ranger) {
	if o.Disjoint && blockCovered(rg, o.I, o.J, o.K, o.S) {
		mulSubRows(o)
		return
	}
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			lo, hi := rg.JRange(o.I+i, gk)
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi, ui := o.X[i*o.XS:], o.U[i*o.US:]
			subRow(xi[lo:mid], vk[lo:mid], ui[k])
			subRow(xi[mid:hi], vk[mid:hi], ui[k])
		}
	}
}

// mulSubRows is mulAddRows with subtracting accumulation: X −= U·V,
// in strict k order per cell.
func mulSubRows[T Real](o Operands[T]) {
	x, u, v, s := o.X, o.U, o.V, o.S
	i := 0
	for ; i+1 < s; i += 2 {
		xr0 := x[i*o.XS:][:s]
		xr1 := x[(i+1)*o.XS:][:s]
		ur0 := u[i*o.US:][:s]
		ur1 := u[(i+1)*o.US:][:s]
		k := 0
		for ; k+3 < s; k += 4 {
			a00, a01, a02, a03 := ur0[k], ur0[k+1], ur0[k+2], ur0[k+3]
			a10, a11, a12, a13 := ur1[k], ur1[k+1], ur1[k+2], ur1[k+3]
			b0 := v[k*o.VS:][:len(xr0)]
			b1 := v[(k+1)*o.VS:][:len(xr0)]
			b2 := v[(k+2)*o.VS:][:len(xr0)]
			b3 := v[(k+3)*o.VS:][:len(xr0)]
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
			b := v[k*o.VS:][:s]
			subRow(xr0, b, ur0[k])
			subRow(xr1, b, ur1[k])
		}
	}
	if i < s { // odd side: the last row alone
		xr := x[i*o.XS:][:s]
		for k, a := range u[i*o.US:][:s] {
			subRow(xr, v[k*o.VS:][:s], a)
		}
	}
}

// GaussElim is the Gaussian-elimination op:
// f(x,u,v,w) = x - (u/w)·v, two roundings after the division exactly as
// in Func. The kernel hoists the multiplier m = u/w out of the j loop —
// the same operands divided once per segment instead of per element,
// so the quotient is bit-identical.
type GaussElim[T Real] struct{}

// Func implements Op.
func (GaussElim[T]) Func() UpdateFunc[T] {
	return func(_, _, _ int, x, u, v, w T) T {
		m := u / w
		return x - T(m*v)
	}
}

// Kernel implements Kerneler. With the Gaussian set the interval never
// contains j == k (members need k < j), but the split keeps the kernel
// exact for any Ranger it meets.
func (GaussElim[T]) Kernel(o Operands[T], rg Ranger) {
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			lo, hi := rg.JRange(o.I+i, gk)
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi, ui := o.X[i*o.XS:], o.U[i*o.US:]
			if lo < mid {
				subRow(xi[lo:mid], vk[lo:mid], ui[k]/o.W[k*o.WS+k])
			}
			if mid < hi {
				subRow(xi[mid:hi], vk[mid:hi], ui[k]/o.W[k*o.WS+k])
			}
		}
	}
}

// LUFactor is the LU-decomposition op for the LU set:
//
//	f(x,u,v,w) = x/w      if j == k  (stores the multiplier l_ik)
//	             x - u·v  if j != k  (elimination with the multiplier)
//
// The kernel stores the multiplier at the segment's pivot cell and
// runs the elimination with u = l_ik registered. A block whose columns
// miss its k-range has no j == k update, so there the LU update is
// MulSub's, and a covered disjoint one — an in-place D block — runs
// mulSubRows.
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

// Kernel implements Kerneler.
func (LUFactor[T]) Kernel(o Operands[T], rg Ranger) {
	if o.Disjoint && disjointRange(o.J, o.K, o.S) && blockCovered(rg, o.I, o.J, o.K, o.S) {
		mulSubRows(o)
		return
	}
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			lo, hi := rg.JRange(o.I+i, gk)
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi, ui := o.X[i*o.XS:], o.U[i*o.US:]
			if lo < mid { // the segment ends at the pivot, which stores x/w
				subRow(xi[lo:mid-1], vk[lo:mid-1], ui[k])
				xi[mid-1] /= o.W[k*o.WS+k]
			}
			subRow(xi[mid:hi], vk[mid:hi], ui[k])
		}
	}
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
// standard sets answer in O(1); other Rangers are scanned per (i,k),
// an O(s²) test against the block's O(s³) work.
func blockCovered(rg Ranger, xi, xj, k0, s int) bool {
	kMax := k0 + s - 1
	switch rg.(type) {
	case Full:
		return true
	case LU:
		return kMax < xi && kMax <= xj
	case Gaussian:
		return kMax < xi && kMax < xj
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
// f(x,u,v,w) = x ∨ (u ∧ v) — Warshall's algorithm. The kernel skips
// whole segments with u = U[i,k] false (every update then returns x
// unchanged) and stores only rising edges; cell values are identical
// to the generic path's.
type Closure struct{}

// Func implements Op.
func (Closure) Func() UpdateFunc[bool] {
	return func(_, _, _ int, x, u, v, _ bool) bool { return x || (u && v) }
}

// Kernel implements Kerneler. No split is needed: u = U[i,k] can
// change only at the pivot, to x ∨ (u ∧ v) = u itself when X is U.
func (Closure) Kernel(o Operands[bool], rg Ranger) {
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			if !o.U[i*o.US+k] {
				continue
			}
			lo, hi := rg.JRange(o.I+i, gk)
			lo, _, hi = span(lo, hi, gk, o.J, o.S)
			xr := o.X[i*o.XS:][lo:hi]
			for j, v := range vk[lo:hi] {
				if v {
					xr[j] = true
				}
			}
		}
	}
}

// Compile-time checks: the built-in ops provide the kernel the
// dispatcher looks for, and a bare UpdateFunc is an Op.
var (
	_ Kerneler[float64] = MinPlus[float64]{}
	_ Kerneler[int64]   = MulAdd[int64]{}
	_ Kerneler[float64] = MulSub[float64]{}
	_ Kerneler[float64] = GaussElim[float64]{}
	_ Kerneler[float64] = LUFactor[float64]{}
	_ Kerneler[bool]    = Closure{}
	_ Op[int64]         = UpdateFunc[int64](nil)
)
