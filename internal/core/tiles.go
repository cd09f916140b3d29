package core

// Detached base-case entries over caller-owned row-major buffers, for
// engines whose recursion is not one of this package's:
//
//   - TileKernel runs one I-GEP block of the out-of-core runtime. When
//     a matrix lives on disk in a block-contiguous layout
//     (internal/ooc's Morton-tiled stores), each base-case block
//     touches at most four tiles — X at (i0,j0), U at (i0,k0), V at
//     (k0,j0) and W at (k0,k0) — each one contiguous run of bytes the
//     store faults in whole, and the block runs straight over the
//     resident buffers.
//   - DisjointBlock runs one all-D block of any side: the leaves of
//     the Strassen-Winograd multiply (internal/linalg, internal/ooc)
//     and of CALU's trailing update.
//
// Both bind the buffers as the operands of the package's one
// dispatcher (fastpath.go), so every block shape reaches the op's
// fused kernel and pays no per-element indirection, and outputs are
// bit-identical to the in-core engines, which the differential tests
// here and in internal/ooc assert with Float64bits.

// TileKernel executes the in-place base-case block
// [i0,i0+s)×[j0,j0+s) for the k-range [k0,k0+s) over four s×s
// row-major tile buffers:
//
//	x = c[i0:i0+s, j0:j0+s]   (written)
//	u = c[i0:i0+s, k0:k0+s]
//	v = c[k0:k0+s, j0:j0+s]
//	w = c[k0:k0+s, k0:k0+s]
//
// The block obeys input conditions 2.1: i0 and j0 each either equal
// k0 or start a disjoint aligned quadrant. Callers must pass the SAME
// slice for every coinciding quadrant (j0 == k0 makes u the x slice,
// i0 == k0 makes v the x slice and w the u slice, the diagonal block
// makes all four one slice); aliasing is how the kernel observes its
// own writes exactly as the in-core in-place kernels do.
func TileKernel[T any](op Op[T], set UpdateSet, x, u, v, w []T, i0, j0, k0, s int) {
	d := newDispatcher(op, set,
		flatOperand(x, s, i0, j0), flatOperand(u, s, i0, k0),
		flatOperand(v, s, k0, j0), flatOperand(w, s, k0, k0))
	d.inPlace = true
	d.baseCase(i0, j0, k0, s)
}

// DisjointBlock executes one all-D base-case block of side s:
// x[i,j] ← f(x[i,j], u[i,k], v[k,j], w[k,k]) for every ⟨i,j,k⟩ of the
// set inside the local [0,s)³ cube, k ascending per cell. It is the
// RunDisjoint base case detached from the power-of-two recursion —
// same dispatch, same counters, same bit-exact update order — for
// leaf sides that need not be powers of two. Element (i, j) of X lives
// at x[i*xs+j], and likewise for u, v, w. Aliased read operands (e.g.
// v == w for multiplication) are the caller's choice, exactly as with
// RunDisjoint; x must be disjoint from all three.
func DisjointBlock[T any](op Op[T], set UpdateSet, x []T, xs int, u []T, us int, v []T, vs int, w []T, ws int, s int) {
	d := newDispatcher(op, set,
		flatOperand(x, xs, 0, 0), flatOperand(u, us, 0, 0),
		flatOperand(v, vs, 0, 0), flatOperand(w, ws, 0, 0))
	d.baseCase(0, 0, 0, s)
}

// Block is one base-case quadrant of the I-GEP recursion: the update
// box [I,I+S)×[J,J+S) with k-range [K,K+S).
type Block struct {
	// I, J, K are the block origin; S is the side length.
	I, J, K, S int
}

// IGEPBlocks enumerates the base-case blocks RunIGEP visits, in visit
// order, for side length n (a power of two), base-case side base and
// the given set's pruning (prune mirrors WithPrune; pass true for the
// default). Callers count blocks with it: a run's total, or the
// half-way point of a crash drill. It runs igep itself with a
// base-case hook that records each block, so position p+1 is always
// the block the recursion executes after position p.
func IGEPBlocks(n, base int, set UpdateSet, prune bool) []Block {
	checkPow2(n)
	var blocks []Block
	record := &dispatcher[struct{}]{set: set, hook: func(i0, j0, k0, s int) bool {
		blocks = append(blocks, Block{I: i0, J: j0, K: k0, S: s})
		return true
	}}
	if n > 0 {
		e := &engine[struct{}]{d: record, cfg: &config[struct{}]{baseSize: max(base, 1), prune: prune}}
		e.igep(0, 0, 0, n)
	}
	return blocks
}
