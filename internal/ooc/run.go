package ooc

import (
	"errors"
	"fmt"

	"gep/internal/core"
)

// Tile-granular out-of-core I-GEP driver. The element path runs the
// unmodified engines over the matrix.Grid interface — correct, but
// every update pays four interface calls and a page-map probe. This
// driver instead installs a core.WithBaseCase hook that, per base-case
// block, pins the block's ≤4 aligned quadrant tiles into RAM and runs
// core.TileKernel straight over the resident flat buffers (reaching
// the same fused kernels the in-core engines use), while the store
// writes evicted dirty tiles back in the background. Every tile read
// is a demand fault of a quadrant the I-GEP recursion touches, in
// recursion order, so the §4.1 transfer accounting is unchanged — only
// the per-element CPU overhead goes away, and the write-backs overlap
// compute.
//
// Because core.RunIGEP visits base-case blocks in a deterministic
// order, "number of completed blocks" is a complete progress cursor:
// a durable store checkpointed every CheckpointEvery blocks can, after
// a crash, re-enter the same recursion with StartBlock set to the
// recovered frontier and skip the finished prefix without any I/O —
// the resumed run is bit-identical to an uninterrupted one.

// ErrStopped is returned by RunIGEP when RunOptions.StopAfter or Stop
// ended the run early, and by RunStrassen when Stop did — the
// crash-drill and abort hooks; the store is deliberately left
// unsynced (pair with Store.Abandon to simulate a kill).
var ErrStopped = errors.New("ooc: run stopped at requested block")

// RunOptions configures RunIGEP, and RunStrassen's Stop.
type RunOptions struct {
	// Prefetch has no effect: every tile read is a demand fault.
	//
	// Deprecated: ignored; the store does not read ahead.
	Prefetch bool

	// CheckpointEvery, when positive, commits a durable sync point
	// (Store.Checkpoint, tagged with the completed-block count) every
	// that many base-case blocks, plus one final checkpoint at
	// completion. Requires a durable store (CreateAt/Open).
	CheckpointEvery int64
	// StartBlock skips the first StartBlock base-case blocks — the
	// resume path: pass the frontier Store.Recover reported. Skipped
	// blocks cost no I/O.
	StartBlock int64
	// StopAfter, when positive, aborts the run with ErrStopped once
	// that many blocks have completed (counting skipped ones) WITHOUT
	// syncing the store — the crash-drill hook for recovery tests.
	StopAfter int64
	// OnCheckpoint, when set, is called after each committed sync
	// point with its tag (the completed-block count). The oocrun
	// subcommand uses it to announce kill points.
	OnCheckpoint func(blocks int64)
	// Stop, when set, is polled before each block (RunStrassen: before
	// each tile it writes); returning true aborts the run with
	// ErrStopped, leaving the store unsynced like StopAfter does. The
	// job server maps runtime aborts (cancel, deadline) onto it.
	Stop func() bool
}

// coordinate of a tile in the quadrant grid.
type tcoord struct{ r, c int }

// RunIGEP executes I-GEP with update op over the update set on m using
// tile-granular I/O. m must use a tile-contiguous layout
// (MortonTiledLayout); the base-case size is the layout's tile side.
// Results are bit-identical to the in-core core.RunIGEP on the same
// input — including runs checkpointed, killed, recovered, and resumed
// via RunOptions.StartBlock. The first error from any layer — pin,
// kernel staging, write-behind, checkpoint, final sync — aborts the
// remaining work (the recursion still unwinds, but every subsequent
// block is consumed as a no-op) and is returned.
func RunIGEP(m *Matrix, op core.Op[float64], set core.UpdateSet, opts RunOptions) error {
	tl := m.Tiling()
	if tl == nil {
		return fmt.Errorf("ooc: RunIGEP needs a tile-contiguous layout (use MortonTiledLayout)")
	}
	if opts.CheckpointEvery > 0 && m.s.jr == nil {
		return errNotDurable
	}
	side := tl.Side
	pos := int64(0)
	var runErr error
	hook := func(i0, j0, k0, s int) bool {
		if runErr != nil {
			pos++
			return true
		}
		if opts.Stop != nil && opts.Stop() {
			runErr = ErrStopped
			pos++
			return true
		}
		if s != side {
			// Unreachable when side divides the (power-of-two) matrix
			// side, which the layout guarantees; guarded for safety.
			runErr = fmt.Errorf("ooc: base-case side %d does not match tile side %d", s, side)
			pos++
			return true
		}
		if pos < opts.StartBlock {
			pos++
			return true
		}
		runErr = runBlock(m, op, set, i0, j0, k0, s)
		pos++
		if runErr == nil && opts.CheckpointEvery > 0 && pos%opts.CheckpointEvery == 0 {
			runErr = m.s.Checkpoint(pos)
			if runErr == nil && opts.OnCheckpoint != nil {
				opts.OnCheckpoint(pos)
			}
		}
		if runErr == nil && opts.StopAfter > 0 && pos >= opts.StopAfter {
			runErr = ErrStopped
		}
		return true
	}
	core.RunIGEP[float64](m, op, set,
		core.WithBaseSize[float64](side), core.WithBaseCase[float64](hook))
	if errors.Is(runErr, ErrStopped) {
		// Crash drill: leave the store unsynced on purpose.
		return runErr
	}
	if runErr == nil && opts.CheckpointEvery > 0 && pos%opts.CheckpointEvery != 0 {
		runErr = m.s.Checkpoint(pos)
		if runErr == nil && opts.OnCheckpoint != nil {
			opts.OnCheckpoint(pos)
		}
	}
	if err := m.s.SyncTiles(); runErr == nil {
		runErr = err
	}
	if runErr == nil {
		runErr = m.s.Err()
	}
	return runErr
}

// blockTileCoords lists the distinct quadrant tiles of base-case block
// (ti, tj) with pivot tile row/column tk: X=(ti,tj), U=(ti,tk),
// V=(tk,tj), W=(tk,tk), deduplicated, X first.
func blockTileCoords(ti, tj, tk int) []tcoord {
	coords := make([]tcoord, 0, 4)
	for _, cd := range [4]tcoord{{ti, tj}, {ti, tk}, {tk, tj}, {tk, tk}} {
		dup := false
		for _, have := range coords {
			if have == cd {
				dup = true
				break
			}
		}
		if !dup {
			coords = append(coords, cd)
		}
	}
	return coords
}

// runBlock pins the block's tiles, runs the tile kernel over the
// resident buffers, and unpins (marking only the written X tile
// dirty — the kernel writes no other quadrant; aliased quadrants share
// the X tile, so their writes are covered).
func runBlock(m *Matrix, op core.Op[float64], set core.UpdateSet, i0, j0, k0, s int) error {
	ti, tj, tk := i0/s, j0/s, k0/s
	coords := blockTileCoords(ti, tj, tk)
	tiles := make([]*Tile, len(coords))
	for n, cd := range coords {
		t, err := m.PinTile(cd.r, cd.c)
		if err != nil {
			for _, p := range tiles[:n] {
				m.s.UnpinTile(p, false)
			}
			return err
		}
		tiles[n] = t
	}
	pick := func(cd tcoord) *Tile {
		for n, have := range coords {
			if have == cd {
				return tiles[n]
			}
		}
		return nil
	}
	x := pick(tcoord{ti, tj})
	u := pick(tcoord{ti, tk})
	v := pick(tcoord{tk, tj})
	w := pick(tcoord{tk, tk})
	core.TileKernel(op, set, x.Data, u.Data, v.Data, w.Data, i0, j0, k0, s)
	for n, t := range tiles {
		m.s.UnpinTile(t, n == 0) // coords[0] is X
	}
	return nil
}
