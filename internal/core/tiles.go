package core

// Tile-granular base cases for the out-of-core runtime. When a matrix
// lives on disk in a block-contiguous layout (internal/ooc's
// Morton-tiled stores), each base-case block of the I-GEP recursion
// touches at most four tiles — X at (i0,j0), U at (i0,k0), V at
// (k0,j0) and W at (k0,k0) — and each tile is one contiguous run of
// bytes the store can fault in whole. TileKernel executes one such
// block directly over the four resident tile buffers, reusing the
// fused closed-form kernels of ops.go where their shape applies, so
// the out-of-core engine pays zero per-element indirection once a
// tile is resident.
//
// Like every kernel tier (see ops.go), TileKernel applies the same
// updates, in the same order, reading the same cell states, with the
// same floating-point rounding sequence as the generic path — outputs
// are bit-identical to the in-core engines, which the differential
// tests in internal/ooc assert with Float64bits.

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
//
// Dispatch follows the kernel hierarchy of fastpath.go: the op's
// fused closed-form kernel when the block shape admits one (BlockKernel
// on the diagonal, the D-block kernel of dKernelOf when all four
// quadrants are distinct, as in the in-core engines), the
// Ranger-hoisted flat loop otherwise, and the per-element Contains
// loop for sets without column intervals.
func TileKernel[T any](op Op[T], set UpdateSet, x, u, v, w []T, i0, j0, k0, s int) {
	rg, _ := set.(Ranger)
	if rg != nil {
		local := shiftSet{rg: rg, di: i0, dj: j0, dk: k0}
		if i0 == k0 && j0 == k0 {
			// Diagonal block: one tile, the in-place base case. Local
			// i == k and j == k coincide with the global tests, so the
			// fused in-place kernels apply verbatim.
			if bk, ok := op.(BlockKerneler[T]); ok && bk.BlockKernel(x, s, local, 0, 0, 0, s) {
				kernelTileFusedCount.Inc()
				return
			}
		} else if i0 != k0 && j0 != k0 {
			// All four quadrants distinct: X is written, U, V, W are
			// read-only — the RunDisjoint shape.
			if dk := dKernelOf(op); dk != nil && dk.DisjointKernel(x, s, u, s, v, s, w, s, local, 0, 0, 0, s) {
				kernelTileFusedCount.Inc()
				return
			}
		}
		kernelTileFlatCount.Inc()
		tileKernelRange(x, u, v, w, rg, op.Func(), i0, j0, k0, s)
		return
	}
	kernelTileGenericCount.Inc()
	tileKernelGeneric(x, u, v, w, set, op.Func(), i0, j0, k0, s)
}

// shiftSet presents a Ranger in block-local coordinates: the fused
// kernels run tiles with local indices starting at zero, so membership
// queries translate by the block origin before consulting the global
// set, and column intervals translate back.
type shiftSet struct {
	rg         Ranger
	di, dj, dk int
}

// Contains implements UpdateSet.
func (t shiftSet) Contains(i, j, k int) bool {
	return t.rg.Contains(i+t.di, j+t.dj, k+t.dk)
}

// Intersects implements UpdateSet.
func (t shiftSet) Intersects(i1, i2, j1, j2, k1, k2 int) bool {
	return t.rg.Intersects(i1+t.di, i2+t.di, j1+t.dj, j2+t.dj, k1+t.dk, k2+t.dk)
}

// JRange implements Ranger. An interval unbounded above (math.MaxInt)
// stays far above any block bound after translation, so no special
// case is needed; the kernels clamp to the block either way.
func (t shiftSet) JRange(i, k int) (lo, hi int) {
	lo, hi = t.rg.JRange(i+t.di, k+t.dk)
	return lo - t.dj, hi - t.dj
}

// tileKernelRange is igepKernelFlatRange over four tile buffers: the
// loops run in global coordinates (so f receives the true indices and
// the j == k split lands exactly where the flat kernel splits) and
// only the addressing subtracts the tile origins. The register
// discipline is identical: u and w hoist out of the j loop and reload
// after the j == k update, whose writes are the only way row i's
// pinned cells can change mid-interval (when j == k occurs inside the
// block, j0 == k0 and x aliases u by the caller contract, so the
// reload observes the write just as the flat kernel does).
func tileKernelRange[T any](x, u, v, w []T, rg Ranger, f UpdateFunc[T], i0, j0, k0, s int) {
	for k := k0; k < k0+s; k++ {
		vk := v[(k-k0)*s:]
		wv := w[(k-k0)*s+(k-k0)]
		for i := i0; i < i0+s; i++ {
			lo, hi := clampJRange(rg, i, k, j0, s)
			if lo >= hi {
				continue
			}
			xi := x[(i-i0)*s:]
			uv := u[(i-i0)*s+(k-k0)]
			j := lo
			if k >= lo && k < hi {
				for ; j < k; j++ {
					xi[j-j0] = f(i, j, k, xi[j-j0], uv, vk[j-j0], wv)
				}
				// j == k: x = c[i,k] = uv and v = c[k,k] = wv (no prior
				// iteration of this row touched column k or the pivot).
				xi[k-j0] = f(i, k, k, uv, uv, wv, wv)
				uv = u[(i-i0)*s+(k-k0)]
				wv = w[(k-k0)*s+(k-k0)]
				j = k + 1
			}
			for ; j < hi; j++ {
				xi[j-j0] = f(i, j, k, xi[j-j0], uv, vk[j-j0], wv)
			}
		}
	}
}

// tileKernelGeneric is igepKernel over four tile buffers: membership
// per element via set.Contains, every operand re-read per update, so
// aliasing needs no analysis at all.
func tileKernelGeneric[T any](x, u, v, w []T, set UpdateSet, f UpdateFunc[T], i0, j0, k0, s int) {
	for k := k0; k < k0+s; k++ {
		for i := i0; i < i0+s; i++ {
			for j := j0; j < j0+s; j++ {
				if set.Contains(i, j, k) {
					x[(i-i0)*s+(j-j0)] = f(i, j, k,
						x[(i-i0)*s+(j-j0)],
						u[(i-i0)*s+(k-k0)],
						v[(k-k0)*s+(j-j0)],
						w[(k-k0)*s+(k-k0)])
				}
			}
		}
	}
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
// default). It is the prefetch oracle of the out-of-core runtime: the
// tile driver walks this sequence one block ahead of the recursion and
// faults the next block's tiles in the background. The enumeration
// replicates igep() exactly, so position p+1 is always the block the
// recursion executes after position p.
func IGEPBlocks(n, base int, set UpdateSet, prune bool) []Block {
	checkPow2(n)
	if n == 0 {
		return nil
	}
	if base < 1 {
		base = 1
	}
	return appendBlocks(nil, set, prune, base, 0, 0, 0, n)
}

// appendBlocks mirrors igep()'s control flow (pruning test, base-case
// cut, forward and backward quadrant passes).
func appendBlocks(dst []Block, set UpdateSet, prune bool, base, i0, j0, k0, s int) []Block {
	if prune && !set.Intersects(i0, i0+s-1, j0, j0+s-1, k0, k0+s-1) {
		return dst
	}
	if s <= base {
		return append(dst, Block{I: i0, J: j0, K: k0, S: s})
	}
	h := s / 2
	dst = appendBlocks(dst, set, prune, base, i0, j0, k0, h)
	dst = appendBlocks(dst, set, prune, base, i0, j0+h, k0, h)
	dst = appendBlocks(dst, set, prune, base, i0+h, j0, k0, h)
	dst = appendBlocks(dst, set, prune, base, i0+h, j0+h, k0, h)
	dst = appendBlocks(dst, set, prune, base, i0+h, j0+h, k0+h, h)
	dst = appendBlocks(dst, set, prune, base, i0+h, j0, k0+h, h)
	dst = appendBlocks(dst, set, prune, base, i0, j0+h, k0+h, h)
	dst = appendBlocks(dst, set, prune, base, i0, j0, k0+h, h)
	return dst
}
