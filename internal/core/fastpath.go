package core

import "gep/internal/matrix"

// Base-case dispatch. Every engine hands its base-case blocks to one
// function, (*dispatcher).baseCase: the in-place recursion (RunIGEP
// and RunCGEP, in either schedule), RunGEP's single whole-matrix
// block, RunDisjoint, and the detached entries TileKernel (resident
// out-of-core tiles) and DisjointBlock (the Strassen and CALU leaves).
// A dispatcher binds the op, the set and the storage of X, U, V and W
// once per run (or call), and each block then takes the first tier
// that applies:
//
//  1. the hook, which may consume the block: WithBaseCase's, or
//     C-GEP's saved-state kernel (cgep.go), which consumes every one;
//  2. the op's packed word kernel over a *matrix.Bits (bits.go);
//  3. the op's fused kernel (ops.go) over flat storage when the set is
//     a Ranger — counted by core.kernel.fused;
//  4. the flat loop (flatKernel) over flat storage with the
//     per-element indirect UpdateFunc call: the Ranger interval per
//     (i,k), else set.Contains per element — core.kernel.flat;
//  5. the Grid loop (gridKernel) through the Grid interface, for
//     wrapper grids (cache simulators, tracers, out-of-core stores) —
//     core.kernel.generic.
//
// Flat storage is the row-major backing of a *matrix.Dense (detected
// once per run via matrix.Flat) or a caller's tile buffer. Every tier
// applies the same updates, in the same order, reading the same cell
// states, as the Grid loop — outputs are bit-identical (asserted by
// the differential tests in fastpath_test.go, fused_test.go and
// tiles_test.go).

// dispatcher is one run's binding of the base-case tiers.
type dispatcher[T any] struct {
	f     UpdateFunc[T]
	set   UpdateSet
	rg    Ranger      // the set's column intervals; nil when it has none
	fused Kerneler[T] // the op's kernel when it has one and rg is bound
	hook  func(i0, j0, k0, s int) bool

	// bits/bitsOp bind the packed tier when X is a *matrix.Bits (the
	// in-place engines only, T = bool) and the op has a word kernel;
	// tw is the four-Russians table width.
	bits   *matrix.Bits
	bitsOp BitsKerneler
	tw     int

	x, u, v, w operand[T]
	flat       bool // all four operands have flat storage
	// inPlace reports that U, V and W lie in X's matrix, so a block is
	// disjoint only off the pivot rows and columns (a D block).
	inPlace bool
}

// operand is one of X, U, V and W as a dispatcher addresses it: its
// Grid, for the Grid loop, and its row-major backing when the storage
// is flat, with data[0] holding cell (r0, c0).
type operand[T any] struct {
	g matrix.Grid[T]
	flatRect[T]
	r0, c0 int
}

// operandOf binds a grid as an operand, with its flat view if it has
// one.
func operandOf[T any](g matrix.Grid[T]) operand[T] {
	return operand[T]{g: g, flatRect: flatOf(g)}
}

// flatOperand binds a bare row-major buffer whose data[0] holds cell
// (r0, c0).
func flatOperand[T any](data []T, stride, r0, c0 int) operand[T] {
	return operand[T]{flatRect: flatRect[T]{data: data, stride: stride, ok: true}, r0: r0, c0: c0}
}

// from returns the backing from cell (r, c) on.
func (p *operand[T]) from(r, c int) []T { return p.data[(r-p.r0)*p.stride+c-p.c0:] }

// newDispatcher binds op and set over the operands x, u, v and w: the
// fused kernel needs both the op's Kernel and the set's Ranger. It
// binds the op's Func only for the flat and Grid loops that call it: a
// generic op's Func closure captures its type dictionary, so building
// it allocates, and a fused kernel over flat storage never needs it.
func newDispatcher[T any](op Op[T], set UpdateSet, x, u, v, w operand[T]) dispatcher[T] {
	d := dispatcher[T]{set: set, x: x, u: u, v: v, w: w}
	d.flat = x.ok && u.ok && v.ok && w.ok
	if d.rg, _ = set.(Ranger); d.rg != nil {
		d.fused, _ = op.(Kerneler[T])
	}
	if d.fused == nil || !d.flat {
		d.f = op.Func()
	}
	return d
}

// inPlaceDispatcher binds the in-place engines' dispatcher: X, U, V
// and W all lie in c. tw is the four-Russians table width of the
// packed tier.
func inPlaceDispatcher[T any](c matrix.Grid[T], op Op[T], set UpdateSet, tw int) dispatcher[T] {
	g := operandOf(c)
	d := newDispatcher(op, set, g, g, g, g)
	d.inPlace = true
	if b, ok := any(c).(*matrix.Bits); ok {
		d.bits, d.tw = b, tw
		d.bitsOp, _ = op.(BitsKerneler)
	}
	return d
}

// baseCase executes the block [i0,i0+s)×[j0,j0+s) with k-range
// [k0,k0+s) through the first tier that applies (see the file
// comment).
func (d *dispatcher[T]) baseCase(i0, j0, k0, s int) {
	if d.hook != nil && d.hook(i0, j0, k0, s) {
		return
	}
	if d.bitsOp != nil && d.bitsOp.BitsKernel(d.bits, d.rg, d.tw, i0, j0, k0, s) {
		return
	}
	if !d.flat {
		gridKernel(d.x.g, d.u.g, d.v.g, d.w.g, d.f, d.set, i0, j0, k0, s)
		return
	}
	o := Operands[T]{Block: Block{I: i0, J: j0, K: k0, S: s}, Disjoint: !d.inPlace || i0 != k0 && j0 != k0}
	o.X, o.XS = d.x.from(i0, j0), d.x.stride
	o.U, o.US = d.u.from(i0, k0), d.u.stride
	o.V, o.VS = d.v.from(k0, j0), d.v.stride
	o.W, o.WS = d.w.from(k0, k0), d.w.stride
	if d.fused != nil {
		kernelFusedCount.Inc()
		d.fused.Kernel(o, d.rg)
		return
	}
	flatKernel(o, d.f, d.set, d.rg)
}

// flatKernel is the flat loop: the block in G order over the flat
// operands with one indirect call of f per update. With a Ranger the
// j loop runs over the set's column interval per (i,k), otherwise it
// tests set.Contains per element. u = U[i,k] and w = W[k,k] are
// loop-invariant up to the pivot column j == k and re-read after it
// (see span), so reads match the Grid loop's exactly, for overlapping
// and disjoint operands alike.
func flatKernel[T any](o Operands[T], f UpdateFunc[T], set UpdateSet, rg Ranger) {
	kernelFlatCount.Inc()
	for k := 0; k < o.S; k++ {
		vk := o.V[k*o.VS:]
		gk := o.K + k
		for i := 0; i < o.S; i++ {
			gi := o.I + i
			lo, hi := o.J, o.J+o.S
			if rg != nil {
				lo, hi = rg.JRange(gi, gk)
			}
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi := o.X[i*o.XS:]
			u, w := o.U[i*o.US+k], o.W[k*o.WS+k]
			for j := lo; j < hi; j++ {
				if j == mid {
					u, w = o.U[i*o.US+k], o.W[k*o.WS+k]
				}
				if rg == nil && !set.Contains(gi, o.J+j, gk) {
					continue
				}
				xi[j] = f(gi, o.J+j, gk, xi[j], u, vk[j], w)
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
