package core

import (
	mathbits "math/bits"
	"sync"

	"gep/internal/matrix"
)

// Bit-packed base-case kernels. When an engine runs over a
// *matrix.Bits grid (64 boolean cells per word), the base-case
// dispatch binds a third storage tier above flat and generic: the op's
// word-parallel kernel, which updates a whole row interval per machine
// instruction instead of per cell. Two ops provide one — Closure
// (x ∨ (u ∧ v), row-OR) and GF2Elim (x ⊕ (u ∧ v), row-XOR) — and both
// additionally carry an M4RI-style "method of four Russians" variant:
// for blocks whose sources cannot change mid-block, the k loop is
// processed in groups of tw rows, all 2^tw row combinations of a group
// are tabulated incrementally (each table entry is one row-op away
// from a previous entry), and each target row then applies its whole
// group in a single table lookup — an extra ~tw/2 speedup on top of
// the 64× packing.
//
// The dispatch contract is the same as for the fused float kernels
// (ops.go): every packed kernel applies the same updates, reading the
// same cell states, as the generic per-element kernel running the
// op's Func — final contents are bit-for-bit identical, which the
// differential and fuzz tests in bits_test.go assert. The four-
// Russians path is therefore only taken when its preconditions make
// it exact:
//
//   - the written rows (i-range) are disjoint from the source rows
//     (k-range), so no source row changes while its group is tabled;
//   - the written columns (j-range) are disjoint from the k-range, so
//     the u = c[i,k] selector bits read as one table index are the
//     same bits the per-element kernel would read one k at a time;
//   - the update set covers the whole block (blockCovered), so the
//     group lookup applies exactly the per-element update set.
//
// In the I-GEP/ABCD recursion all base-case blocks satisfy "each range
// equals or is disjoint from the k-range" (input conditions 2.1), so
// every block other than the O((n/b)²) pivot-row/column blocks takes
// the four-Russians path; the rest run the plain word kernel.

// BitsKerneler is an Op with a word-parallel kernel for base-case
// blocks over a packed boolean matrix. tw is the four-Russians table
// width in bits (0 disables the table path; see WithTableWidth).
type BitsKerneler interface {
	Op[bool]
	// BitsKernel executes the base-case block [i0,i0+s)×[j0,j0+s) for
	// the k-range [k0,k0+s) over the packed matrix, exactly as the
	// generic kernel would with Func. It returns false to decline (for
	// example when rg is nil); the caller then falls back to the
	// generic per-element path.
	BitsKernel(b *matrix.Bits, rg Ranger, tw, i0, j0, k0, s int) bool
}

// defaultTableWidth is the four-Russians group width the engines use
// unless WithTableWidth overrides it: 2^8 = 256 table entries, the
// classic M4RI sweet spot (table build amortizes once s ≳ 128).
const defaultTableWidth = 8

// autoBaseSizeBits is the automatic base-case side for packed grids.
// A packed base block is 64× smaller in bytes than a float block of
// the same side (512² bits = 32 KB — L1-resident), and the four-
// Russians gain grows with the block side, so the packed default sits
// well above the float default of 64.
const autoBaseSizeBits = 512

// m4riWins reports whether the four-Russians path is expected to beat
// the plain word kernel on an s-side block at table width tw: the
// table path costs (s/tw)·(2^tw + s) row-ops against the plain
// kernel's ~s²/2 (half the selector bits set on average), with a 2×
// safety margin for the table's cache footprint.
func m4riWins(tw, s int) bool {
	return tw > 0 && tw <= 16 && s*tw >= 2*(1<<uint(tw)+s)
}

// disjointRange reports [a, a+s) ∩ [b, b+s) = ∅. Under input
// conditions 2.1 the ranges either coincide or are disjoint, so this
// is simply a != b, but the explicit form keeps the kernels safe for
// any caller.
func disjointRange(a, b, s int) bool { return a+s <= b || b+s <= a }

// orSpan applies dst |= src under the RowSpan edge-mask convention.
func orSpan(dst, src []uint64, fm, lm uint64) {
	n := len(dst)
	if n == 1 {
		dst[0] |= src[0] & fm
		return
	}
	dst[0] |= src[0] & fm
	for w := 1; w < n-1; w++ {
		dst[w] |= src[w]
	}
	dst[n-1] |= src[n-1] & lm
}

// xorSpan applies dst ^= src under the RowSpan edge-mask convention.
func xorSpan(dst, src []uint64, fm, lm uint64) {
	n := len(dst)
	if n == 1 {
		dst[0] ^= src[0] & fm
		return
	}
	dst[0] ^= src[0] & fm
	for w := 1; w < n-1; w++ {
		dst[w] ^= src[w]
	}
	dst[n-1] ^= src[n-1] & lm
}

// m4riTables pools four-Russians table buffers: base cases allocate up
// to 2^tw · s/64 words per call and may run concurrently on the
// work-stealing runtime.
var m4riTables sync.Pool

func m4riBuf(words int) *[]uint64 {
	if p, _ := m4riTables.Get().(*[]uint64); p != nil {
		if cap(*p) >= words {
			*p = (*p)[:words]
			return p
		}
	}
	buf := make([]uint64, words)
	return &buf
}

// bitsM4RI runs the four-Russians base case over the packed matrix:
// for each group of t <= tw source rows [kg, kg+t), table entry idx
// holds the OR (xor=false) or XOR (xor=true) of the source rows
// selected by the bits of idx, built incrementally (entry = previous
// entry ∘ one row); each target row i then reads its t selector bits
// c[i, kg..kg+t) as the table index and applies the entry in one
// masked word pass. Preconditions (checked by the callers): sources
// and selector bits must be invariant across the block and the update
// set must cover it.
func bitsM4RI(b *matrix.Bits, tw, i0, j0, k0, s int, xor bool) {
	_, fm, lm := b.RowSpan(i0, j0, j0+s)
	probe, _, _ := b.RowSpan(i0, j0, j0+s)
	nw := len(probe)
	tp := m4riBuf((1 << uint(tw)) * nw)
	defer m4riTables.Put(tp)
	tbl := *tp
	for kg := k0; kg < k0+s; kg += tw {
		t := tw
		if kg+t > k0+s {
			t = k0 + s - kg
		}
		entries := 1 << uint(t)
		for w := 0; w < nw; w++ {
			tbl[w] = 0
		}
		for idx := 1; idx < entries; idx++ {
			lsb := idx & -idx
			bit := mathbits.TrailingZeros(uint(idx))
			src, _, _ := b.RowSpan(kg+bit, j0, j0+s)
			prev := tbl[(idx^lsb)*nw:]
			dst := tbl[idx*nw:]
			if xor {
				for w := 0; w < nw; w++ {
					dst[w] = prev[w] ^ src[w]
				}
			} else {
				for w := 0; w < nw; w++ {
					dst[w] = prev[w] | src[w]
				}
			}
		}
		for i := i0; i < i0+s; i++ {
			idx := b.Bits64(i, kg, t)
			if idx == 0 {
				continue
			}
			e := tbl[int(idx)*nw : int(idx)*nw+nw]
			dw, _, _ := b.RowSpan(i, j0, j0+s)
			if xor {
				xorSpan(dw, e, fm, lm)
			} else {
				orSpan(dw, e, fm, lm)
			}
		}
	}
}

// BitsKernel implements BitsKerneler for the transitive-closure op:
// when the selector bit u = c[i,k] is set, row i's member interval
// ORs in row k word-parallel (u is invariant across the row — the
// only in-interval write to column k is x ∨ (u ∧ w) = u itself — and
// when i == k the OR is a self-union, an identity, exactly like the
// per-element updates it replaces). Blocks with row-, column- and
// set-invariant sources take the four-Russians table path.
func (Closure) BitsKernel(b *matrix.Bits, rg Ranger, tw, i0, j0, k0, s int) bool {
	if rg == nil {
		return false
	}
	if m4riWins(tw, s) && disjointRange(i0, k0, s) && disjointRange(j0, k0, s) &&
		blockCovered(rg, i0, j0, k0, s) {
		kernelBitsM4RICount.Inc()
		bitsM4RI(b, tw, i0, j0, k0, s, false)
		return true
	}
	kernelBitsWordCount.Inc()
	for k := k0; k < k0+s; k++ {
		for i := i0; i < i0+s; i++ {
			lo, hi := clampJRange(rg, i, k, j0, s)
			if lo >= hi || !b.At(i, k) {
				continue
			}
			dw, fm, lm := b.RowSpan(i, lo, hi)
			sw, _, _ := b.RowSpan(k, lo, hi)
			orSpan(dw, sw, fm, lm)
		}
	}
	return true
}

// GF2Elim is the GF(2) Gaussian-elimination op:
// f(x,u,v,w) = x ⊕ (u ∧ v) — over GF(2) the multiplier u/w equals u
// (the pivot w is 1 whenever elimination is defined), subtraction is
// XOR, and multiplication is AND, so the float update x − (u/w)·v
// collapses to a single XOR-AND. Combined with the Gaussian set it
// reduces a packed matrix to upper-triangular form; inputs must be
// eliminable without pivoting (all leading principal minors
// nonsingular over GF(2)) for the result to be an echelon form, but
// the kernels compute the GEP recurrence exactly for any input. For
// general matrices use the pivoted direct solvers in internal/linalg
// (SolveGF2, RankGF2).
type GF2Elim struct{}

// Func implements Op.
func (GF2Elim) Func() UpdateFunc[bool] {
	return func(_, _, _ int, x, u, v, _ bool) bool { return x != (u && v) }
}

// Kernel implements Kerneler over flat []bool storage — the
// element-wise baseline the packed engines are benchmarked against.
// Unlike Closure, XOR is not idempotent: the pivot update j == k
// rewrites the selector u = X[i,k] when X is U, so u is re-read after
// it (see span); a row with i == k that is its own source row reads
// each element right before flipping it, as the generic path does.
func (GF2Elim) Kernel(o Operands[bool], rg Ranger) {
	for k := 0; k < o.S; k++ {
		vk, gk := o.V[k*o.VS:], o.K+k
		for i := 0; i < o.S; i++ {
			lo, hi := rg.JRange(o.I+i, gk)
			lo, mid, hi := span(lo, hi, gk, o.J, o.S)
			xi, ui := o.X[i*o.XS:], o.U[i*o.US:]
			if ui[k] {
				xorRow(xi[lo:mid], vk[lo:mid])
			}
			if ui[k] {
				xorRow(xi[mid:hi], vk[mid:hi])
			}
		}
	}
}

// xorRow flips xr[j] wherever vr[j] is set.
func xorRow(xr, vr []bool) {
	xr = xr[:len(vr)]
	for j, v := range vr {
		if v {
			xr[j] = !xr[j]
		}
	}
}

// BitsKernel implements BitsKerneler: when the selector bit u = c[i,k]
// is set, row i's member interval XORs in row k word-parallel. The
// hoist is exact only when the interval excludes column k (u
// invariant) and i != k (source invariant); other rows — which never
// arise under the Gaussian set, whose intervals start at k+1 — take an
// exact per-element loop. Blocks whose written rows and columns are
// both strictly above the k-range take the four-Russians table path.
func (GF2Elim) BitsKernel(b *matrix.Bits, rg Ranger, tw, i0, j0, k0, s int) bool {
	if rg == nil {
		return false
	}
	if m4riWins(tw, s) && i0 >= k0+s && j0 >= k0+s && blockCovered(rg, i0, j0, k0, s) {
		kernelBitsM4RICount.Inc()
		bitsM4RI(b, tw, i0, j0, k0, s, true)
		return true
	}
	kernelBitsWordCount.Inc()
	for k := k0; k < k0+s; k++ {
		for i := i0; i < i0+s; i++ {
			lo, hi := clampJRange(rg, i, k, j0, s)
			if lo >= hi {
				continue
			}
			if lo <= k || i == k {
				for j := lo; j < hi; j++ {
					if b.At(i, k) && b.At(k, j) {
						b.Set(i, j, !b.At(i, j))
					}
				}
				continue
			}
			if !b.At(i, k) {
				continue
			}
			dw, fm, lm := b.RowSpan(i, lo, hi)
			sw, _, _ := b.RowSpan(k, lo, hi)
			xorSpan(dw, sw, fm, lm)
		}
	}
	return true
}

// Compile-time checks: the packed ops provide the kernels the bits
// dispatch tier looks for.
var (
	_ BitsKerneler   = Closure{}
	_ BitsKerneler   = GF2Elim{}
	_ Kerneler[bool] = GF2Elim{}
)
