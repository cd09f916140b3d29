package core

import "gep/internal/matrix"

// Parallel C-GEP (§3 of the paper: "A similar parallel algorithm with
// the same parallel time bound applies to C-GEP"). The recursion is
// the A/B/C/D schedule of Figure 6 applied to H's base case: parallel
// tasks write disjoint X blocks and save aux state only at their own
// (i,j) cells, while their aux reads target cells owned by recursive
// calls already sequenced before them — the same dependence argument
// that makes multithreaded I-GEP safe.

// RunCGEPParallel executes C-GEP (4n² scheme) with the multithreaded
// recursion; combine with WithParallel to enable goroutines. Results
// are always identical to RunGEP and RunCGEP.
func RunCGEPParallel[T any](c matrix.Grid[T], op Op[T], set UpdateSet, opts ...Option[T]) {
	n := c.N()
	checkPow2(n)
	if n == 0 {
		return
	}
	cfg := forkConfig(c, opts)
	st := &cgepState[T]{
		c: c, f: op.Func(), set: set, cfg: &cfg,
		u0: cfg.newAux(n, n), u1: cfg.newAux(n, n),
		v0: cfg.newAux(n, n), v1: cfg.newAux(n, n),
		uCols: n, vRows: n,
	}
	st.bindFlat()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := c.At(i, j)
			st.u0.Set(i, j, x)
			st.u1.Set(i, j, x)
			st.v0.Set(i, j, x)
			st.v1.Set(i, j, x)
		}
	}
	st.recPar(0, 0, 0, n)
}

// par runs tasks concurrently when enabled and above the grain.
func (st *cgepState[T]) par(s int, tasks ...func()) { parGroup(st.cfg, s, tasks...) }

// recPar is H over the Figure 6 schedule.
func (st *cgepState[T]) recPar(xi, xj, k0, s int) {
	if st.cfg.prune && !st.set.Intersects(xi, xi+s-1, xj, xj+s-1, k0, k0+s-1) {
		return
	}
	if s <= st.cfg.baseSize {
		if st.flat {
			st.kernelFlat(xi, xj, k0, s)
		} else {
			st.kernel(xi, xj, k0, s)
		}
		return
	}
	h := s / 2
	iK, jK := xi == k0, xj == k0
	switch {
	case iK && jK: // A
		st.recPar(xi, xj, k0, h)
		st.par(s,
			func() { st.recPar(xi, xj+h, k0, h) },
			func() { st.recPar(xi+h, xj, k0, h) },
		)
		st.recPar(xi+h, xj+h, k0, h)
		st.recPar(xi+h, xj+h, k0+h, h)
		st.par(s,
			func() { st.recPar(xi+h, xj, k0+h, h) },
			func() { st.recPar(xi, xj+h, k0+h, h) },
		)
		st.recPar(xi, xj, k0+h, h)
	case iK: // B
		st.par(s,
			func() { st.recPar(xi, xj, k0, h) },
			func() { st.recPar(xi, xj+h, k0, h) },
		)
		st.par(s,
			func() { st.recPar(xi+h, xj, k0, h) },
			func() { st.recPar(xi+h, xj+h, k0, h) },
		)
		st.par(s,
			func() { st.recPar(xi+h, xj, k0+h, h) },
			func() { st.recPar(xi+h, xj+h, k0+h, h) },
		)
		st.par(s,
			func() { st.recPar(xi, xj, k0+h, h) },
			func() { st.recPar(xi, xj+h, k0+h, h) },
		)
	case jK: // C
		st.par(s,
			func() { st.recPar(xi, xj, k0, h) },
			func() { st.recPar(xi+h, xj, k0, h) },
		)
		st.par(s,
			func() { st.recPar(xi, xj+h, k0, h) },
			func() { st.recPar(xi+h, xj+h, k0, h) },
		)
		st.par(s,
			func() { st.recPar(xi, xj+h, k0+h, h) },
			func() { st.recPar(xi+h, xj+h, k0+h, h) },
		)
		st.par(s,
			func() { st.recPar(xi, xj, k0+h, h) },
			func() { st.recPar(xi+h, xj, k0+h, h) },
		)
	default: // D
		st.par(s,
			func() { st.recPar(xi, xj, k0, h) },
			func() { st.recPar(xi, xj+h, k0, h) },
			func() { st.recPar(xi+h, xj, k0, h) },
			func() { st.recPar(xi+h, xj+h, k0, h) },
		)
		st.par(s,
			func() { st.recPar(xi, xj, k0+h, h) },
			func() { st.recPar(xi, xj+h, k0+h, h) },
			func() { st.recPar(xi+h, xj, k0+h, h) },
			func() { st.recPar(xi+h, xj+h, k0+h, h) },
		)
	}
}
