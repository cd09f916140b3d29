package core

import "gep/internal/vec"

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
// disjoint from the other three, and has at most three loop
// structures:
//
//   - a row kernel unrolled over k for disjoint blocks the update set
//     fully covers (MinPlus, MulAdd, MulSub and LUFactor): the
//     covered-block kernels MinPlusRows, MulAddRows and MulSubRows;
//   - whole rows for the A, B and C blocks of the in-place engines
//     and for GaussElim's covered blocks, over the standard sets only
//     (MinPlus over Full, LUFactor over LU, GaussElim over Gaussian):
//     each row takes its k in one multi-k row call (SubRowK,
//     MinPlusRowK), right-looking over groups of pivots where the
//     block's columns are its k-range (minPlusRowsInPlace, elimRows);
//   - the fallback for every other block: a row loop split at the
//     pivot column (see span), exact for any overlap and any Ranger,
//     with one single-k row update (MinPlusRow, AddRow, SubRow) per
//     segment.
//
// The rows themselves run in internal/vec. For float64 on amd64 (not
// under -race) its assembly updates eight cells of a row per
// instruction on hosts with AVX-512 and four on hosts with AVX2 alone,
// lanes across j, so the contract below holds unchanged on either
// tier; everywhere else they are Go loops. DESIGN.md §10 has the table
// of which block takes which structure and why each is exact.
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
// in-place and disjoint operands alike. The kernels skip empty
// segments: on amd64 the vec row helpers are calls, not inlined loops,
// and on a diagonal block most (i, k) have an empty segment.
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
// numeric type the update arithmetic (+, *, /, <) is defined on. It is
// the constraint of internal/vec's row kernels.
type Real = vec.Real

// rows returns the covered-block kernel operands of the disjoint
// block o.
func rows[T Real](o Operands[T]) vec.Block[T] {
	return vec.Block[T]{X: o.X, U: o.U, V: o.V, XS: o.XS, US: o.US, VS: o.VS, M: o.S, K: o.S, N: o.S}
}

// MinPlus is the Floyd-Warshall op: f(x,u,v,w) = min(x, u+v); min is
// insensitive to the w argument. Its kernel takes whole rows:
// vec.MinPlusRows on covered disjoint blocks and, over the Full set,
// minPlusRowsInPlace on the B and C blocks of an in-place run. A
// blocks, B blocks with a negative diagonal cell and every other set
// run the split row loop.
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

// Kernel implements Kerneler.
func (MinPlus[T]) Kernel(o Operands[T], rg Ranger) {
	if o.Disjoint && blockCovered(rg, o.I, o.J, o.K, o.S) {
		vec.MinPlusRows(rows(o))
		return
	}
	if _, full := rg.(Full); full && !o.Disjoint && minPlusRowsInPlace(o) {
		return
	}
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			lo, hi := rg.JRange(o.I+i, gk)
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi, ui := o.X[i*o.XS:], o.U[i*o.US:]
			if lo < mid {
				vec.MinPlusRow(xi[lo:mid], vk[lo:mid], ui[k])
			}
			if mid < hi {
				vec.MinPlusRow(xi[mid:hi], vk[mid:hi], ui[k])
			}
		}
	}
}

// minPlusRowsInPlace runs an in-place Full-set B or C block of MinPlus
// a whole row at a time and reports whether it did; A blocks, and B
// blocks with a W[k,k] below 0, are left to the split loop.
//
// C block (J = K, X is U, V is the diagonal block): rows are
// independent, and step k relaxes columns j <= k with u = X[i,k] read
// before the pivot write and columns j > k with u read after it. Each
// group of pivots runs its own columns as scalar code, recording both
// u per k, then one vec.MinPlusRowK with the pre-pivot u over the
// columns left of the group and one with the post-pivot u over those
// right of it.
//
// B block (I = K, X is V, U is the diagonal block): two passes over
// the rows in ascending order, the first over k < i, the second over
// k >= i with X's own row i as V's first row. Row i at step k then
// reads row k after steps 0..k-1, the state the split loop reads —
// provided row k's own step k leaves it unchanged, which holds when
// W[k,k] = U[k,k] is not below 0: min(x, w+x) = x for such w, NaN, ±0
// and ±Inf included (for integers only w = 0, since w+x can wrap). A
// negative diagonal cell changes row k mid-step, so rows before and
// after k read different versions of it.
func minPlusRowsInPlace[T Real](o Operands[T]) bool {
	switch {
	case o.J == o.K && disjointRange(o.I, o.K, o.S):
		for i := 0; i < o.S; i++ {
			x, u := o.X[i*o.XS:][:o.S], o.U[i*o.US:][:o.S]
			for g := 0; g < o.S; g += pivots {
				e := min(g+pivots, o.S)
				var pre, post [pivots]T
				for k := g; k < e; k++ {
					vk := o.V[k*o.VS:][:e]
					a := u[k]
					for j := g; j <= k; j++ {
						if d := a + vk[j]; d < x[j] {
							x[j] = d
						}
					}
					b := u[k]
					for j := k + 1; j < e; j++ {
						if d := b + vk[j]; d < x[j] {
							x[j] = d
						}
					}
					pre[k-g], post[k-g] = a, b
				}
				vec.MinPlusRowK(x[:g], pre[:e-g], o.V[g*o.VS:], o.VS)
				vec.MinPlusRowK(x[e:], post[:e-g], o.V[g*o.VS+e:], o.VS)
			}
		}
	case o.I == o.K && disjointRange(o.J, o.K, o.S):
		// Row k's step k leaves it unchanged when w = W[k,k] is 0 or, in
		// a floating-point type (where 1/2 is not 0), not below 0. An
		// integer w > 0 can wrap w+x below x.
		float := T(1)/2 != 0
		for k := 0; k < o.S; k++ {
			if w := o.W[k*o.WS+k]; w < 0 || w != 0 && !float {
				return false
			}
		}
		for i := 0; i < o.S; i++ {
			vec.MinPlusRowK(o.X[i*o.XS:][:o.S], o.U[i*o.US:][:i], o.V, o.VS)
		}
		for i := 0; i < o.S; i++ {
			vec.MinPlusRowK(o.X[i*o.XS:][:o.S], o.U[i*o.US:][i:o.S], o.V[i*o.VS:], o.VS)
		}
	default:
		return false
	}
	return true
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

// Kernel implements Kerneler: vec.MulAddRows on covered disjoint
// blocks, the split row loop otherwise.
func (MulAdd[T]) Kernel(o Operands[T], rg Ranger) {
	if o.Disjoint && blockCovered(rg, o.I, o.J, o.K, o.S) {
		vec.MulAddRows(rows(o))
		return
	}
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			lo, hi := rg.JRange(o.I+i, gk)
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi, ui := o.X[i*o.XS:], o.U[i*o.US:]
			if lo < mid {
				vec.AddRow(xi[lo:mid], vk[lo:mid], ui[k])
			}
			if mid < hi {
				vec.AddRow(xi[mid:hi], vk[mid:hi], ui[k])
			}
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

// Kernel implements Kerneler: vec.MulSubRows on covered disjoint
// blocks, the split row loop otherwise.
func (MulSub[T]) Kernel(o Operands[T], rg Ranger) {
	if o.Disjoint && blockCovered(rg, o.I, o.J, o.K, o.S) {
		vec.MulSubRows(rows(o))
		return
	}
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			lo, hi := rg.JRange(o.I+i, gk)
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi, ui := o.X[i*o.XS:], o.U[i*o.US:]
			if lo < mid {
				vec.SubRow(xi[lo:mid], vk[lo:mid], ui[k])
			}
			if mid < hi {
				vec.SubRow(xi[mid:hi], vk[mid:hi], ui[k])
			}
		}
	}
}

// GaussElim is the Gaussian-elimination op:
// f(x,u,v,w) = x - (u/w)·v, two roundings after the division exactly as
// in Func. Every path forms the multiplier m = u/w once per (i, k) from
// the operands Func divides, so the quotient is bit-identical. Over the
// Gaussian set its kernel takes whole rows (elimRows): the covered
// blocks, D blocks among them, and the A, B and C blocks of an
// in-place run. Every other block and set runs the split row loop.
type GaussElim[T Real] struct{}

// Func implements Op.
func (GaussElim[T]) Func() UpdateFunc[T] {
	return func(_, _, _ int, x, u, v, w T) T {
		m := u / w
		return x - T(m*v)
	}
}

// Kernel implements Kerneler. With the Gaussian set the interval never
// contains j == k (members need k < j), but the split keeps the loop
// exact for any Ranger it meets.
func (GaussElim[T]) Kernel(o Operands[T], rg Ranger) {
	if _, ok := rg.(Gaussian); ok && elimRows(o, false) {
		return
	}
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			lo, hi := rg.JRange(o.I+i, gk)
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi, ui := o.X[i*o.XS:], o.U[i*o.US:]
			if lo < mid {
				vec.SubRow(xi[lo:mid], vk[lo:mid], ui[k]/o.W[k*o.WS+k])
			}
			if mid < hi {
				vec.SubRow(xi[mid:hi], vk[mid:hi], ui[k]/o.W[k*o.WS+k])
			}
		}
	}
}

// LUFactor is the LU-decomposition op for the LU set:
//
//	f(x,u,v,w) = x/w      if j == k  (stores the multiplier l_ik)
//	             x - u·v  if j != k  (elimination with the multiplier)
//
// A block whose columns miss its k-range has no j == k update, so
// there the LU update is MulSub's, and a covered disjoint one — an
// in-place D block — runs vec.MulSubRows. Over the LU set the A, B and
// C blocks of an in-place run take whole rows (elimRows); every other
// block and set runs the split row loop, which stores the multiplier
// at the segment's pivot cell and runs the elimination with u = l_ik
// re-read.
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
		vec.MulSubRows(rows(o))
		return
	}
	if _, ok := rg.(LU); ok && elimRows(o, true) {
		return
	}
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			lo, hi := rg.JRange(o.I+i, gk)
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi, ui := o.X[i*o.XS:], o.U[i*o.US:]
			if lo < mid-1 {
				vec.SubRow(xi[lo:mid-1], vk[lo:mid-1], ui[k])
			}
			if lo < mid { // the segment ends at the pivot, which stores x/w
				xi[mid-1] /= o.W[k*o.WS+k]
			}
			if mid < hi {
				vec.SubRow(xi[mid:hi], vk[mid:hi], ui[k])
			}
		}
	}
}

// elimRows runs a block of LU decomposition (lu, the LU set) or
// Gaussian elimination (the Gaussian set) a whole row at a time and
// reports whether it did. In both sets row i takes the k < i of the
// block's k-range, kn = clamp(I−K+i, 0, S) of them, each over the
// columns j >= k (LU, whose j == k update divides the pivot cell) or
// j > k (Gaussian); the multiplier of step k is u = U[i,k] read after
// that division (LU) or U[i,k]/W[k,k] (Gaussian).
//
// In an in-place block row i reads only rows k < i of V, and those are
// final before row i starts, so running the rows in ascending order
// keeps every read of the split loop:
//
//   - columns right of the k-range (the B block, X is V, and Gaussian
//     elimination's covered blocks): one vec.SubRowK per row over its
//     kn k, the Gaussian multipliers formed into a stack buffer first;
//   - columns equal to the k-range (the A block and the C block, X is
//     U): a triangular solve per row, right-looking over groups of
//     pivots. The group's own triangle runs as scalar code, then one
//     vec.SubRowK applies its multipliers to the columns right of it.
//
// Partially covered disjoint blocks are left to the split loop, and so
// is LU's covered disjoint block, which its Kernel runs first.
func elimRows[T Real](o Operands[T], lu bool) bool {
	// m holds the multipliers of one vec.SubRowK call: a pivot group of
	// the triangular rows, or up to 64 k of the rectangular Gaussian
	// rows, whose 64² block ran at half the speed with 8 k per call.
	var m [64]T
	tri := o.J == o.K && !o.Disjoint && (o.I == o.K || disjointRange(o.I, o.K, o.S))
	rect := o.J >= o.K+o.S && (o.I == o.K && !o.Disjoint || !lu && o.I >= o.K+o.S)
	switch {
	case tri:
		for i := 0; i < o.S; i++ {
			kn := min(max(o.I-o.K+i, 0), o.S)
			x, u := o.X[i*o.XS:][:o.S], o.U[i*o.US:][:o.S]
			for g := 0; g < kn; g += pivots {
				e := min(g+pivots, kn)
				for k := g; k < e; k++ {
					var a T
					if lu {
						x[k] /= o.W[k*o.WS+k]
						a = u[k]
					} else {
						a = u[k] / o.W[k*o.WS+k]
					}
					m[k-g] = a
					vk := o.V[k*o.VS:][:e]
					for j := k + 1; j < e; j++ {
						x[j] -= T(a * vk[j])
					}
				}
				vec.SubRowK(x[e:], m[:e-g], o.V[g*o.VS+e:], o.VS)
			}
		}
	case rect:
		for i := 0; i < o.S; i++ {
			kn := min(o.I-o.K+i, o.S)
			x, u := o.X[i*o.XS:][:o.S], o.U[i*o.US:][:kn]
			if lu {
				vec.SubRowK(x, u, o.V, o.VS)
				continue
			}
			for g := 0; g < kn; g += len(m) {
				e := min(g+len(m), kn)
				for k := g; k < e; k++ {
					m[k-g] = u[k] / o.W[k*o.WS+k]
				}
				vec.SubRowK(x, m[:e-g], o.V[g*o.VS:], o.VS)
			}
		}
	default:
		return false
	}
	return true
}

// pivots is the pivot group of the triangular rows: each group runs
// its own triangle as scalar code and hands its k to one vec.SubRowK or
// vec.MinPlusRowK call over the rest of the row.
const pivots = 8

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
