package linalg

import (
	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/par"
)

// MulStrassenGeneric runs MulStrassen's schedule (winograd.go) over
// the matrix.Grid interface: same recursion, same peeling, same
// ascending-k classical leaves, same two-rounding discipline — so its
// result is bitwise identical to MulStrassen (strassen_test.go pins
// this). Its purpose is instrumentation: the bounds2 experiment runs
// it over cachesim recording grids to obtain the engine's exact
// memory-access trace, including the arena temporaries, which the
// caller supplies through get/put so traced runs can model the pool's
// address reuse (a recycled buffer must reappear at the same simulated
// address, exactly as the real arena hands back the same allocation).
// get(h) returns an h×h grid; put returns it to the pool. Pass nil for
// both to allocate plainly.
//
// The classical leaves replay the generic-path element order (k-outer
// triple loop per base block). The fused kernels permute accesses
// *within* one base block, which leaves the block-level locality the
// I/O bounds are about unchanged; DESIGN.md §15 discusses this.
//
// The optional trailing base overrides the classical leaf side
// (default MulStrassen's). The result is bitwise independent of base —
// every cell's additions stay strictly ascending in k at any blocking
// — but the access trace is not: simulations at small M pass a finer
// base (exp_bounds traces I-GEP at base 8 for the same reason) so the
// leaf working set does not drown the recursion being measured.
func MulStrassenGeneric(c, a, b matrix.Grid[float64], crossover int, get func(h int) matrix.Grid[float64], put func(h int, g matrix.Grid[float64]), base ...int) {
	n := c.N()
	if n == 0 {
		return
	}
	if a.N() != n || b.N() != n {
		panic("linalg: MulStrassenGeneric size mismatch")
	}
	if get == nil {
		get = func(h int) matrix.Grid[float64] { return matrix.NewSquare[float64](h) }
		put = func(int, matrix.Grid[float64]) {}
	}
	g := &gridOps{get: get, put: put}
	g.base, _, _ = core.FlatSchedule[float64]()
	if len(base) > 0 && base[0] >= 1 {
		g.base = base[0]
	}
	_ = Strassen(g, gview{g: c}, gview{g: a}, gview{g: b}, n, crossover) // gridOps returns no error
}

// gview is fview's grid twin: an offset window over a Grid.
type gview struct {
	g      matrix.Grid[float64]
	i0, j0 int
}

func (v gview) sub(i, j int) gview      { return gview{g: v.g, i0: v.i0 + i, j0: v.j0 + j} }
func (v gview) at(i, j int) float64     { return v.g.At(v.i0+i, v.j0+j) }
func (v gview) set(i, j int, x float64) { v.g.Set(v.i0+i, v.j0+j, x) }

// gridOps is the matrix.Grid backend of Strassen and classic: serial
// (its fork runs the tasks in order, in the zero par.Ctx its Leaf
// passes), with temporaries from the caller's pool.
type gridOps struct {
	base int
	get  func(h int) matrix.Grid[float64]
	put  func(h int, g matrix.Grid[float64])
}

func (o *gridOps) Quad(v gview, h int) (gview, gview, gview, gview) {
	return v, v.sub(0, h), v.sub(h, 0), v.sub(h, h)
}

func (o *gridOps) Get(h int) gview    { return gview{g: o.get(h)} }
func (o *gridOps) Put(h int, v gview) { o.put(h, v.g) }

func (o *gridOps) Add(dst, x, y gview, s int) error {
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			dst.set(i, j, x.at(i, j)+y.at(i, j))
		}
	}
	return nil
}

func (o *gridOps) Sub(dst, x, y gview, s int) error {
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			dst.set(i, j, x.at(i, j)-y.at(i, j))
		}
	}
	return nil
}

func (o *gridOps) Leaf(c, a, b gview, s int) error {
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			c.set(i, j, 0)
		}
	}
	classic(o, par.Ctx{}, c, a, b, s)
	return nil
}

func (o *gridOps) Peel(c, a, b gview, s int) error {
	o.peel(c, a, b, s, true)
	return nil
}

// block is the generic-path leaf: k-outer ascending triple loop, the
// same per-cell order and rounding as the fused kernels.
func (o *gridOps) block(c, a, b gview, s int) bool {
	if s > o.base {
		return false
	}
	for k := 0; k < s; k++ {
		for i := 0; i < s; i++ {
			u := a.at(i, k)
			for j := 0; j < s; j++ {
				t := u * b.at(k, j)
				c.set(i, j, c.at(i, j)+t)
			}
		}
	}
	return true
}

func (o *gridOps) fork(cx par.Ctx, _ int, tasks ...func(par.Ctx)) {
	for _, t := range tasks {
		t(cx)
	}
}

func (o *gridOps) peel(c, a, b gview, s int, overwrite bool) {
	m := s - 1
	for i := 0; i < m; i++ {
		u := a.at(i, m)
		for j := 0; j < m; j++ {
			t := u * b.at(m, j)
			c.set(i, j, c.at(i, j)+t)
		}
	}
	for i := 0; i < m; i++ {
		x := 0.0
		if !overwrite {
			x = c.at(i, m)
		}
		for k := 0; k < s; k++ {
			t := a.at(i, k) * b.at(k, m)
			x += t
		}
		c.set(i, m, x)
	}
	if overwrite {
		for j := 0; j < s; j++ {
			c.set(m, j, 0)
		}
	}
	for k := 0; k < s; k++ {
		u := a.at(m, k)
		for j := 0; j < s; j++ {
			t := u * b.at(k, j)
			c.set(m, j, c.at(m, j)+t)
		}
	}
}
