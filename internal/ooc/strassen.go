package ooc

import (
	"errors"
	"fmt"

	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/matrix"
)

// Out-of-core Strassen-Winograd multiplication over the tile-granular
// store — the first non-GEP access pattern on the tile runtime. The
// recursion is linalg.Strassen, the in-core engine's two-temporary
// Winograd schedule (internal/linalg/winograd.go): seven sub-products
// plus fifteen quadrant additions per level, sequenced so the two
// scratch matrices are reused across sibling products, with classical
// leaves below the crossover. This file is its tile backend; every
// operation is tile-granular: quadrants of a Morton-tiled layout are
// tile-aligned, so a quadrant view is just a tile-coordinate offset,
// additions stream tile triples, and leaves run the fused disjoint
// kernel over resident tile buffers with the C tile pinned across the
// k sweep.
//
// Scratch lives in the same store, past the three matrices, managed by
// a per-run free list keyed by side: the serial schedule needs two
// (s/2)²-element temporaries per level, reused across siblings, so the
// scratch footprint is bounded by 2n²/3 elements — on disk, not in
// RAM; residency is still governed by the store's tile budget, and a
// scratch tile costs transfers only when it actually spills (fresh
// pins via PinTileZero are free of reads by construction).
//
// Determinism: the schedule fixes every output cell's expression tree
// and the leaves accumulate strictly ascending in k, so RunStrassen is
// bit-identical to the in-core MulStrassen at the same crossover —
// strassen_test.go pins this across cache budgets, which is the
// strongest correctness statement available for the eviction and
// write-behind machinery under a non-GEP access pattern.

// RunStrassen computes c = a·b (overwriting c) with the
// Strassen-Winograd recursion at tile granularity. c, a, b must live
// in one store, share a power-of-two side and one tile-contiguous
// layout tile side, and c must not alias a or b. The region of the
// store past the three matrices is used as scratch. crossover < tile
// side is clamped up to it; crossover ≥ n runs the purely classical
// tile loop (the comparator the bounds2 experiment uses).
//
// Of opts it reads Stop, which is polled once per C tile of the leaf
// loop and once per tile of each quadrant addition; returning true
// ends the run with ErrStopped, leaving the store unsynced as RunIGEP
// does.
func RunStrassen(c, a, b *Matrix, crossover int, opts RunOptions) error {
	if c.s != a.s || c.s != b.s {
		return fmt.Errorf("ooc: RunStrassen needs c, a, b in one store")
	}
	n := c.n
	if a.n != n || b.n != n {
		return fmt.Errorf("ooc: RunStrassen size mismatch: c=%d a=%d b=%d", n, a.n, b.n)
	}
	if !matrix.IsPow2(n) {
		return fmt.Errorf("ooc: RunStrassen needs a power-of-two side, got %d", n)
	}
	if c.base == a.base || c.base == b.base {
		return fmt.Errorf("ooc: RunStrassen destination must not alias an operand")
	}
	if c.tiling == nil || a.tiling == nil || b.tiling == nil {
		return fmt.Errorf("ooc: RunStrassen needs tile-contiguous layouts (use MortonTiledLayout)")
	}
	ts := c.tiling.Side
	if a.tiling.Side != ts || b.tiling.Side != ts {
		return fmt.Errorf("ooc: RunStrassen needs one tile side, got c=%d a=%d b=%d",
			ts, a.tiling.Side, b.tiling.Side)
	}
	if crossover < ts {
		crossover = ts // a leaf cannot be finer than one tile
	}
	scratch := c.base + c.Bytes()
	if e := a.base + a.Bytes(); e > scratch {
		scratch = e
	}
	if e := b.base + b.Bytes(); e > scratch {
		scratch = e
	}
	rs := &strassenOOC{
		s:        c.s,
		ts:       ts,
		stop:     opts.Stop,
		layout:   MortonTiledLayout(ts),
		next:     (scratch + 4095) &^ 4095,
		freeList: map[int][]int64{},
	}
	err := linalg.Strassen(rs, mvOf(c), mvOf(a), mvOf(b), n, crossover)
	if errors.Is(err, ErrStopped) {
		return err
	}
	if serr := c.s.SyncTiles(); err == nil {
		err = serr
	}
	if err == nil {
		err = c.s.Err()
	}
	return err
}

// strassenOOC is the tile backend of linalg.Strassen.
type strassenOOC struct {
	s        *Store
	ts       int
	stop     func() bool // RunOptions.Stop; nil never stops
	layout   LayoutFunc
	next     int64           // bump pointer for fresh scratch matrices
	freeList map[int][]int64 // released scratch bases by side
}

// mview is a quadrant view in tile coordinates: the quadrant whose
// first tile is (tr, tc) of m.
type mview struct {
	m      *Matrix
	tr, tc int
}

func mvOf(m *Matrix) mview           { return mview{m: m} }
func (v mview) sub(ti, tj int) mview { return mview{m: v.m, tr: v.tr + ti, tc: v.tc + tj} }
func (v mview) off(ti, tj int) int64 { return v.m.TileOffset(v.tr+ti, v.tc+tj) }

func (rs *strassenOOC) Quad(v mview, h int) (mview, mview, mview, mview) {
	ht := h / rs.ts
	return v, v.sub(0, ht), v.sub(ht, 0), v.sub(ht, ht)
}

// Get hands out an h×h scratch matrix, recycling a released one of
// the same side when available.
func (rs *strassenOOC) Get(h int) mview {
	base := rs.next
	if l := rs.freeList[h]; len(l) > 0 {
		base = l[len(l)-1]
		rs.freeList[h] = l[:len(l)-1]
		scratchReuseCount.Inc()
	} else {
		rs.next += (int64(h)*int64(h)*8 + 4095) &^ 4095
		scratchAllocCount.Inc()
	}
	return mvOf(NewMatrix(rs.s, h, base, rs.layout))
}

func (rs *strassenOOC) Put(h int, v mview) {
	rs.freeList[h] = append(rs.freeList[h], v.m.base)
}

// Peel is never reached: RunStrassen takes power-of-two sides only.
func (rs *strassenOOC) Peel(_, _, _ mview, s int) error {
	return fmt.Errorf("ooc: RunStrassen cannot peel odd side %d", s)
}

// stopped polls RunOptions.Stop, between tiles, with nothing pinned.
func (rs *strassenOOC) stopped() bool { return rs.stop != nil && rs.stop() }

// Leaf is the classical tile loop: for each C tile, pin it fresh
// (zeroed, no read) and sweep k ascending, running the fused disjoint
// kernel over the resident buffers — the per-cell update order is
// ascending k exactly as in the in-core classical recursion, so leaf
// results are bitwise identical to MulFused's at any tile side.
func (rs *strassenOOC) Leaf(c, a, b mview, s int) error {
	nt := s / rs.ts
	for ti := 0; ti < nt; ti++ {
		for tj := 0; tj < nt; tj++ {
			if rs.stopped() {
				return ErrStopped
			}
			ct, err := rs.s.PinTileZero(c.off(ti, tj), rs.ts)
			if err != nil {
				return err
			}
			for tk := 0; tk < nt; tk++ {
				at, err := rs.s.PinTile(a.off(ti, tk), rs.ts)
				if err != nil {
					rs.s.UnpinTile(ct, true)
					return err
				}
				bt, err := rs.s.PinTile(b.off(tk, tj), rs.ts)
				if err != nil {
					rs.s.UnpinTile(at, false)
					rs.s.UnpinTile(ct, true)
					return err
				}
				core.DisjointBlock[float64](core.MulAdd[float64]{}, core.Full{},
					ct.Data, rs.ts, at.Data, rs.ts, bt.Data, rs.ts, bt.Data, rs.ts, rs.ts)
				rs.s.UnpinTile(bt, false)
				rs.s.UnpinTile(at, false)
			}
			rs.s.UnpinTile(ct, true)
		}
	}
	return nil
}

// binTile streams one elementwise binary operation over the quadrant:
// per tile, pin the operands, produce the destination — fresh (no
// read) when it aliases neither operand, in place when it does — and
// unpin with only the destination dirty.
func (rs *strassenOOC) binTile(dst, x, y mview, s int, f func(d, xv, yv []float64)) error {
	nt := s / rs.ts
	for ti := 0; ti < nt; ti++ {
		for tj := 0; tj < nt; tj++ {
			if rs.stopped() {
				return ErrStopped
			}
			do, xo, yo := dst.off(ti, tj), x.off(ti, tj), y.off(ti, tj)
			xt, err := rs.s.PinTile(xo, rs.ts)
			if err != nil {
				return err
			}
			yt, err := rs.s.PinTile(yo, rs.ts)
			if err != nil {
				rs.s.UnpinTile(xt, false)
				return err
			}
			dt := xt
			switch do {
			case xo:
			case yo:
				dt = yt
			default:
				dt, err = rs.s.PinTileZero(do, rs.ts)
				if err != nil {
					rs.s.UnpinTile(yt, false)
					rs.s.UnpinTile(xt, false)
					return err
				}
			}
			f(dt.Data, xt.Data, yt.Data)
			rs.s.UnpinTile(yt, dt == yt)
			rs.s.UnpinTile(xt, dt == xt)
			if dt != xt && dt != yt {
				rs.s.UnpinTile(dt, true)
			}
		}
	}
	return nil
}

func addF(d, xv, yv []float64) {
	for i, v := range xv {
		d[i] = v + yv[i]
	}
}

func subF(d, xv, yv []float64) {
	for i, v := range xv {
		d[i] = v - yv[i]
	}
}

func (rs *strassenOOC) Add(dst, x, y mview, s int) error { return rs.binTile(dst, x, y, s, addF) }
func (rs *strassenOOC) Sub(dst, x, y mview, s int) error { return rs.binTile(dst, x, y, s, subF) }
