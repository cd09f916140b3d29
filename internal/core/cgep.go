package core

import "gep/internal/matrix"

// C-GEP (function H, Figure 3): the fully general cache-oblivious
// implementation of GEP. It runs I-GEP's recursion (the same engine,
// in either schedule) with a different base case, which replaces the
// direct reads of c[i,k], c[k,j] and c[k,k] with reads of saved
// intermediate states so that every update sees precisely the values
// the iterative G would have supplied (second column of Table 1).
// Four auxiliary matrices record the states:
//
//	u0[i,j] — value of c[i,j] in state τ_ij(j-1)
//	u1[i,j] — value of c[i,j] in state τ_ij(j)
//	v0[i,j] — value of c[i,j] in state τ_ij(i-1)
//	v1[i,j] — value of c[i,j] in state τ_ij(i)
//
// all initialized to c. The update ⟨i,j,k⟩ then computes
//
//	c[i,j] ← f(c[i,j], u_{[j>k]}[i,k], v_{[i>k]}[k,j],
//	           u_{[(i>k) ∨ (i=k ∧ j>k)]}[k,k])
//
// and re-saves c[i,j] into whichever of the four slots has k as its
// trigger. Time and I/O bounds are those of I-GEP.

// cgepState is H's base case: the matrix, the op's Func, the set and
// the aux matrices. For RunCGEP the aux matrices are full n×n and the
// band bases are 0; for RunCGEPCompact u0/u1 are n×(n/2) column bands
// (columns [uColBase, uColBase+n/2)) and v0/v1 are (n/2)×n row bands.
// The recursion is the in-place engine's (igep.go, abcd.go), with
// baseCase as its dispatcher's hook.
type cgepState[T any] struct {
	c   matrix.Grid[T]
	f   UpdateFunc[T]
	set UpdateSet

	u0, u1 matrix.Rect[T]
	v0, v1 matrix.Rect[T]

	uColBase int // first column stored in u0/u1
	vRowBase int // first row stored in v0/v1
	uCols    int // number of columns stored (n or n/2)
	vRows    int // number of rows stored (n or n/2)

	// Flat fast path (see fastpath.go): taken when c and all four aux
	// matrices are dense. tauSet is the set's O(1) τ view, resolved
	// once instead of per save test; rg its column intervals.
	fc, fu0, fu1, fv0, fv1 flatRect[T]
	flat                   bool
	tauSet                 TauSet
	rg                     Ranger
}

// newCGEP allocates H's aux matrices, u0/u1 with uCols columns and
// v0/v1 with vRows rows, through cfg's factory, and binds the flat
// views of c and the aux matrices plus the set's TauSet/Ranger hooks,
// and the automatic base size. The flat kernel runs only when all five
// stores are dense; a file-backed aux factory (WithAuxFactory) or a
// wrapper grid falls back to the generic kernel.
//
// The C-GEP engines accept fused ops but never run their kernels:
// H's base case must route the u/v/w reads through the saved-state aux
// matrices and perform the τ-triggered saves, which a closed-form
// direct-read kernel cannot do. They run the op's Func through the flat
// or generic H kernels instead — the fused → flat → generic hierarchy
// simply has its first rung empty here (see DESIGN.md §10).
func newCGEP[T any](c matrix.Grid[T], op Op[T], set UpdateSet, cfg *config[T], uCols, vRows int) *cgepState[T] {
	n := c.N()
	st := &cgepState[T]{
		c: c, f: op.Func(), set: set,
		u0: cfg.newAux(n, uCols), u1: cfg.newAux(n, uCols),
		v0: cfg.newAux(vRows, n), v1: cfg.newAux(vRows, n),
		uCols: uCols, vRows: vRows,
	}
	st.fc = flatOf(st.c)
	st.fu0, st.fu1 = flatRectOf(st.u0), flatRectOf(st.u1)
	st.fv0, st.fv1 = flatRectOf(st.v0), flatRectOf(st.v1)
	st.flat = st.fc.ok && st.fu0.ok && st.fu1.ok && st.fv0.ok && st.fv1.ok
	st.tauSet, _ = st.set.(TauSet)
	st.rg, _ = st.set.(Ranger)
	cfg.resolveBaseSize(st.flat, false)
	return st
}

// engine returns the in-place engine whose base case is H's: the
// dispatcher's hook consumes every block. It is in place, so abcd reads
// the A/B/C/D kind from the block coordinates as for I-GEP.
func (st *cgepState[T]) engine(cfg *config[T]) *engine[T] {
	return &engine[T]{d: &dispatcher[T]{set: st.set, inPlace: true, hook: st.baseCase}, cfg: cfg}
}

// baseCase runs one block through the flat or the generic H kernel.
func (st *cgepState[T]) baseCase(i0, j0, k0, s int) bool {
	if st.flat {
		st.kernelFlat(i0, j0, k0, s)
	} else {
		st.kernel(i0, j0, k0, s)
	}
	return true
}

// tauOf is Tau(st.set, i, j, l) with the TauSet assertion hoisted.
func (st *cgepState[T]) tauOf(i, j, l int) int {
	if st.tauSet != nil {
		return st.tauSet.Tau(i, j, l)
	}
	for k := l; k >= 0; k-- {
		if st.set.Contains(i, j, k) {
			return k
		}
	}
	return -1
}

// RunCGEP executes C-GEP with the 4n²-extra-space scheme of §2.2.2.
// It is a provably correct cache-oblivious implementation of RunGEP
// for every update function and update set: the two always produce
// identical results. The side length must be a power of two.
//
// Like RunIGEP it runs F's order by default and the A/B/C/D schedule
// of Figure 6 with WithParallel (§3: "A similar parallel algorithm
// with the same parallel time bound applies to C-GEP"): parallel
// tasks write disjoint X blocks and save aux state only at their own
// (i,j) cells, while their aux reads target cells owned by recursive
// calls already sequenced before them — the same dependence argument
// that makes multithreaded I-GEP safe. Results are identical either
// way.
func RunCGEP[T any](c matrix.Grid[T], op Op[T], set UpdateSet, opts ...Option[T]) {
	n := c.N()
	checkPow2(n)
	if n == 0 {
		return
	}
	cfg := buildConfig(c, opts)
	st := newCGEP(c, op, set, &cfg, n, n)
	// Initialize every aux matrix to c (Figure 3 preamble).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := c.At(i, j)
			st.u0.Set(i, j, x)
			st.u1.Set(i, j, x)
			st.v0.Set(i, j, x)
			st.v1.Set(i, j, x)
		}
	}
	st.engine(&cfg).run(n)
}

// RunCGEPCompact executes C-GEP with the reduced-space scheme: the aux
// state is restricted to the columns (for u0/u1) and rows (for v0/v1)
// of the half of the k-range currently being processed, and is
// re-initialized from c between the two halves — 2n² extra cells
// instead of 4n², at the cost of the extra (re)initialization passes
// the paper observed to make the compact variant slightly slower. It
// runs F's order only and ignores WithParallel.
//
// (The technical report's variant reaches n²+n extra cells with a finer
// scheme; this implementation keeps the same top-level idea — trade
// reinitialization work for space — at 2n². See DESIGN.md §4.)
//
// Correctness of the band restriction: reads at update ⟨i,j,k⟩ touch
// only u-columns k, v-rows k and the diagonal cell (k,k), all inside
// the active half. A save for a cell outside the active band can only
// trigger in the first half (its trigger τ is <= its column/row index);
// skipping it is safe because the skipped value — c's state
// τ_ij(j-1) < n/2 — equals c's state at the end of the first half
// (there are no Σ_G updates for that cell between the two), which is
// exactly what the re-initialization stores.
func RunCGEPCompact[T any](c matrix.Grid[T], op Op[T], set UpdateSet, opts ...Option[T]) {
	n := c.N()
	checkPow2(n)
	if n == 0 {
		return
	}
	if n == 1 {
		// A single cell: H degenerates to G.
		RunGEP(c, op, set)
		return
	}
	// No grid for the fork check: the compact scheme never forks.
	cfg := buildConfig[T](nil, opts)
	m := n / 2
	st := newCGEP(c, op, set, &cfg, m, m)
	e := st.engine(&cfg)

	// First half: k ∈ [0, m). Bands hold columns/rows [0, m).
	st.uColBase, st.vRowBase = 0, 0
	st.reinitBands()
	e.igep(0, 0, 0, m) // X11, forward pass of the root
	e.igep(0, m, 0, m) // X12
	e.igep(m, 0, 0, m) // X21
	e.igep(m, m, 0, m) // X22

	// Second half: k ∈ [m, n). Re-point the bands at columns/rows
	// [m, n) and refill them with c's current state.
	st.uColBase, st.vRowBase = m, m
	st.reinitBands()
	e.igep(m, m, m, m) // X22, backward pass of the root
	e.igep(m, 0, m, m) // X21
	e.igep(0, m, m, m) // X12
	e.igep(0, 0, m, m) // X11
}

// reinitBands loads the active columns of u0/u1 and rows of v0/v1 from
// the current contents of c.
func (st *cgepState[T]) reinitBands() {
	n := st.c.N()
	for i := 0; i < n; i++ {
		for j := 0; j < st.uCols; j++ {
			x := st.c.At(i, st.uColBase+j)
			st.u0.Set(i, j, x)
			st.u1.Set(i, j, x)
		}
	}
	for i := 0; i < st.vRows; i++ {
		for j := 0; j < n; j++ {
			x := st.c.At(st.vRowBase+i, j)
			st.v0.Set(i, j, x)
			st.v1.Set(i, j, x)
		}
	}
}

// kernel executes a base-case block in G order with the H read/save
// discipline (lines 2-8 of Figure 3 for s == 1; the block-kernel
// generalization otherwise).
func (st *cgepState[T]) kernel(i0, j0, k0, s int) {
	kernelGenericCount.Inc()
	ucb, vrb := st.uColBase, st.vRowBase
	for k := k0; k < k0+s; k++ {
		for i := i0; i < i0+s; i++ {
			for j := j0; j < j0+s; j++ {
				if !st.set.Contains(i, j, k) {
					continue
				}
				// Reads (line 4): the saved states that equal what
				// G would read (Table 1, column 2).
				var u T
				if j > k {
					u = st.u1.At(i, k-ucb)
				} else {
					u = st.u0.At(i, k-ucb)
				}
				var v T
				if i > k {
					v = st.v1.At(k-vrb, j)
				} else {
					v = st.v0.At(k-vrb, j)
				}
				var w T
				if i > k || (i == k && j > k) {
					w = st.u1.At(k, k-ucb)
				} else {
					w = st.u0.At(k, k-ucb)
				}
				x := st.f(i, j, k, st.c.At(i, j), u, v, w)
				st.c.Set(i, j, x)

				// Saves (lines 5-8): record c[i,j]'s new state in
				// whichever slots have k as their trigger. Saves
				// whose target lies outside the active band are
				// skipped (see RunCGEPCompact for why that is safe).
				if j-ucb >= 0 && j-ucb < st.uCols {
					if k == Tau(st.set, i, j, j-1) {
						st.u0.Set(i, j-ucb, x)
					}
					if k == Tau(st.set, i, j, j) {
						st.u1.Set(i, j-ucb, x)
					}
				}
				if i-vrb >= 0 && i-vrb < st.vRows {
					if k == Tau(st.set, i, j, i-1) {
						st.v0.Set(i-vrb, j, x)
					}
					if k == Tau(st.set, i, j, i) {
						st.v1.Set(i-vrb, j, x)
					}
				}
			}
		}
	}
}

// kernelFlat is kernel over flat storage: plain slice indexing for c
// and the aux matrices, the Ranger column interval in place of the
// per-element Contains test, and the TauSet assertion hoisted out of
// the save tests. Reads and writes are element-for-element those of
// kernel, so outputs are bit-identical; the aux reads are kept fresh
// per element because a save at j == k (u side) or i == k (v side) can
// feed a later read in the same loop, exactly as in the generic path.
func (st *cgepState[T]) kernelFlat(i0, j0, k0, s int) {
	kernelFlatCount.Inc()
	ucb, vrb := st.uColBase, st.vRowBase
	rg := st.rg
	for k := k0; k < k0+s; k++ {
		for i := i0; i < i0+s; i++ {
			lo, hi := j0, j0+s
			if rg != nil {
				l, h := rg.JRange(i, k)
				if l > lo {
					lo = l
				}
				if h < hi {
					hi = h
				}
				if lo >= hi {
					continue
				}
			}
			ci := st.fc.row(i)
			for j := lo; j < hi; j++ {
				if rg == nil && !st.set.Contains(i, j, k) {
					continue
				}
				// Reads (line 4 of Figure 3): the saved states that
				// equal what G would read (Table 1, column 2).
				var u T
				if j > k {
					u = st.fu1.at(i, k-ucb)
				} else {
					u = st.fu0.at(i, k-ucb)
				}
				var v T
				if i > k {
					v = st.fv1.at(k-vrb, j)
				} else {
					v = st.fv0.at(k-vrb, j)
				}
				var w T
				if i > k || (i == k && j > k) {
					w = st.fu1.at(k, k-ucb)
				} else {
					w = st.fu0.at(k, k-ucb)
				}
				x := st.f(i, j, k, ci[j], u, v, w)
				ci[j] = x

				// Saves (lines 5-8), band-restricted as in kernel.
				if j-ucb >= 0 && j-ucb < st.uCols {
					if k == st.tauOf(i, j, j-1) {
						st.fu0.set(i, j-ucb, x)
					}
					if k == st.tauOf(i, j, j) {
						st.fu1.set(i, j-ucb, x)
					}
				}
				if i-vrb >= 0 && i-vrb < st.vRows {
					if k == st.tauOf(i, j, i-1) {
						st.fv0.set(i-vrb, j, x)
					}
					if k == st.tauOf(i, j, i) {
						st.fv1.set(i-vrb, j, x)
					}
				}
			}
		}
	}
}
