package ooc

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"gep/internal/linalg"
	"gep/internal/matrix"
	"gep/internal/metrics"
)

func randomDense(n int, seed int64) *matrix.Dense[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewSquare[float64](n)
	m.Apply(func(i, j int, _ float64) float64 { return rng.Float64()*2 - 1 })
	return m
}

// strassenStore creates a store holding a, b, and an empty c, laid out
// Morton-tiled with the given tile side.
func strassenStore(t *testing.T, n, side int, cache int64, a, b *matrix.Dense[float64]) (*Store, *Matrix, *Matrix, *Matrix) {
	t.Helper()
	s, err := Create(t.TempDir(), Config{PageSize: 512, CacheSize: cache, WriteBehind: 2})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	bytes := int64(n) * int64(n) * 8
	la := MortonTiledLayout(side)
	ma := NewMatrix(s, n, 0, la)
	mb := NewMatrix(s, n, bytes, la)
	mc := NewMatrix(s, n, 2*bytes, la)
	if err := ma.Load(a); err != nil {
		t.Fatalf("load a: %v", err)
	}
	if err := mb.Load(b); err != nil {
		t.Fatalf("load b: %v", err)
	}
	return s, mc, ma, mb
}

// TestRunStrassenBitIdenticalToInCore: the tile-granular Strassen
// driver must be Float64bits-identical to the in-core MulStrassen at
// the same crossover, across tile sides and cache budgets that force
// eviction and scratch spills.
func TestRunStrassenBitIdenticalToInCore(t *testing.T) {
	const n = 64
	a, b := randomDense(n, 90), randomDense(n, 91)
	for _, co := range []int{16, 32, 64} {
		want := matrix.NewSquare[float64](n)
		linalg.MulStrassen(want, a, b, co)
		for _, side := range []int{16, 32} {
			if side > co {
				continue // crossover is clamped up to the tile side
			}
			for _, cache := range []int64{3 * int64(side) * int64(side) * 8, 1 << 20} {
				s, mc, ma, mb := strassenStore(t, n, side, cache, a, b)
				err := RunStrassen(mc, ma, mb, co, RunOptions{})
				if err != nil {
					t.Fatalf("co=%d side=%d cache=%d: RunStrassen: %v", co, side, cache, err)
				}
				got, err := mc.Unload()
				if err != nil {
					t.Fatalf("unload: %v", err)
				}
				bitsEqual(t, "RunStrassen", want, got)
				if err := s.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			}
		}
	}
}

// TestRunStrassenClassicalCrossover: crossover ≥ n runs the pure
// classical tile loop; its result must match MulFused bitwise (zeroed
// destination, ascending-k accumulation).
func TestRunStrassenClassicalCrossover(t *testing.T) {
	const n = 64
	a, b := randomDense(n, 92), randomDense(n, 93)
	want := matrix.NewSquare[float64](n)
	linalg.MulFused(want, a, b, 64)
	s, mc, ma, mb := strassenStore(t, n, 16, 1<<20, a, b)
	defer s.Close()
	if err := RunStrassen(mc, ma, mb, n, RunOptions{}); err != nil {
		t.Fatalf("RunStrassen: %v", err)
	}
	got, err := mc.Unload()
	if err != nil {
		t.Fatalf("unload: %v", err)
	}
	bitsEqual(t, "RunStrassen classical", want, got)
}

// TestRunStrassenScratchReuseAndFreshTiles: the scratch free list must
// recycle released temporaries across siblings and levels, and fresh
// pins must not read from disk (no tile-read transfers charged for
// first-touch scratch or product targets).
func TestRunStrassenScratchReuseAndFreshTiles(t *testing.T) {
	const n = 64
	a, b := randomDense(n, 94), randomDense(n, 95)
	s, mc, ma, mb := strassenStore(t, n, 16, 1<<20, a, b)
	defer s.Close()
	before := metrics.Snapshot()
	if err := RunStrassen(mc, ma, mb, 16, RunOptions{}); err != nil {
		t.Fatalf("RunStrassen: %v", err)
	}
	d := metrics.Diff(before, metrics.Snapshot())
	if d["ooc.strassen.scratch.reuse"] == 0 {
		t.Fatalf("expected scratch reuse across siblings, alloc=%d reuse=%d",
			d["ooc.strassen.scratch.alloc"], d["ooc.strassen.scratch.reuse"])
	}
	if d["ooc.tile.fresh"] == 0 {
		t.Fatalf("expected fresh (read-free) tile pins")
	}
	// Two Winograd levels need at most two temporaries per level.
	if got := d["ooc.strassen.scratch.alloc"]; got > 4 {
		t.Fatalf("scratch allocator not bounded: %d fresh scratch matrices", got)
	}
}

// TestRunStrassenValidation: the argument contract is enforced with
// errors, not corruption.
func TestRunStrassenValidation(t *testing.T) {
	const n = 32
	a, b := randomDense(n, 96), randomDense(n, 97)
	s, mc, ma, mb := strassenStore(t, n, 16, 1<<20, a, b)
	defer s.Close()
	if err := RunStrassen(ma, ma, mb, 16, RunOptions{}); err == nil {
		t.Fatalf("aliased destination accepted")
	}
	s2, err := Create(t.TempDir(), Config{PageSize: 512, CacheSize: 1 << 20})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer s2.Close()
	other := NewMatrix(s2, n, 0, MortonTiledLayout(16))
	if err := RunStrassen(mc, ma, other, 16, RunOptions{}); err == nil {
		t.Fatalf("cross-store operands accepted")
	}
	rm := NewMatrix(s2, n, int64(n)*int64(n)*8, RowMajorLayout)
	if err := RunStrassen(rm, other, other, 16, RunOptions{}); err == nil {
		t.Fatalf("row-major (untiled) layout accepted")
	}
	// A tile-contiguous layout (8² tiles in row-major tile order) over
	// a side that is not a power of two: the tile backend cannot peel.
	tiles8 := func(n int) Layout {
		nt := n / 8
		tile := func(ti, tj int) int64 { return int64(ti*nt+tj) * 64 }
		return Layout{
			Index: func(i, j int) int64 { return tile(i/8, j/8) + int64(i%8*8+j%8) },
			Tile:  &Tiling{Side: 8, Index: tile},
		}
	}
	const odd = 24
	oddBytes := int64(odd) * int64(odd) * 8
	oa := NewMatrix(s2, odd, 2*int64(n)*int64(n)*8, tiles8)
	ob := NewMatrix(s2, odd, oa.base+oddBytes, tiles8)
	oc := NewMatrix(s2, odd, ob.base+oddBytes, tiles8)
	if err := RunStrassen(oc, oa, ob, 8, RunOptions{}); err == nil {
		t.Fatalf("side %d (not a power of two) accepted", odd)
	}
	m8 := NewMatrix(s, n, 3*int64(n)*int64(n)*8, MortonTiledLayout(8))
	if err := RunStrassen(mc, ma, m8, 16, RunOptions{}); err == nil {
		t.Fatalf("mismatched tile sides (16 and 8) accepted")
	}
	// The in-store matrices are untouched by the failed calls.
	if err := RunStrassen(mc, ma, mb, 16, RunOptions{}); err != nil {
		t.Fatalf("valid call after rejected ones: %v", err)
	}
	want := matrix.NewSquare[float64](n)
	linalg.MulStrassen(want, a, b, 16)
	got, err := mc.Unload()
	if err != nil {
		t.Fatalf("unload: %v", err)
	}
	bitsEqual(t, "post-validation run", want, got)
}

// TestRunStrassenStop: a Stop that fires on its m-th poll ends the run
// with ErrStopped at that poll, in the classical tile loop (crossover
// n, polled per C tile) and under Winograd (crossover = tile side,
// where the quadrant additions poll first).
func TestRunStrassenStop(t *testing.T) {
	const n, side = 64, 16
	a, b := randomDense(n, 98), randomDense(n, 99)
	for _, co := range []int{n, side} {
		for _, m := range []int{1, 7} {
			s, mc, ma, mb := strassenStore(t, n, side, 1<<20, a, b)
			polls := 0
			stop := func() bool { polls++; return polls >= m }
			if err := RunStrassen(mc, ma, mb, co, RunOptions{Stop: stop}); !errors.Is(err, ErrStopped) {
				t.Fatalf("co=%d m=%d: RunStrassen returned %v, want ErrStopped", co, m, err)
			}
			if polls != m {
				t.Fatalf("co=%d m=%d: Stop polled %d times, want %d", co, m, polls, m)
			}
			s.Abandon()
		}
	}
}

// FuzzStrassenBackends: the three backends of linalg.Strassen — flat
// slices (MulStrassen), matrix.Grid (MulStrassenGeneric) and store
// tiles (RunStrassen) — give the same bits for a power-of-two side n
// in [8, 128], a tile side in [8, n] (one 512-byte page or more), a
// crossover at or above the tile side (at or above n: purely
// classical) and a cache of 3 to 18 tiles. Auto-discovered by the CI
// fuzz job.
func FuzzStrassenBackends(f *testing.F) {
	// TestRunStrassenBitIdenticalToInCore's n = 64, tile 16, 3-tile
	// cache case, at crossovers 16 and 32.
	f.Add(int64(90), uint8(3), uint8(2), uint8(0), uint8(0))
	f.Add(int64(90), uint8(3), uint8(2), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nLog, tileShift, coShift, cacheTiles uint8) {
		n := 8 << (nLog % 5)
		side := n >> (int(tileShift) % (bits.Len(uint(n)) - 3)) // n/side ≤ n/8
		co := side << (int(coShift) % (bits.Len(uint(n/side)) + 1))
		cache := int64(cacheTiles%16+3) * int64(side) * int64(side) * 8
		a, b := randomDense(n, seed), randomDense(n, seed+1)

		want := matrix.NewSquare[float64](n)
		linalg.MulStrassen(want, a, b, co)
		grid := matrix.NewSquare[float64](n)
		linalg.MulStrassenGeneric(grid, a, b, co, nil, nil)
		bitsEqual(t, "MulStrassenGeneric", want, grid)

		s, mc, ma, mb := strassenStore(t, n, side, cache, a, b)
		defer s.Close()
		if err := RunStrassen(mc, ma, mb, co, RunOptions{}); err != nil {
			t.Fatalf("n=%d side=%d co=%d cache=%d: RunStrassen: %v", n, side, co, cache, err)
		}
		got, err := mc.Unload()
		if err != nil {
			t.Fatalf("unload: %v", err)
		}
		bitsEqual(t, "RunStrassen", want, got)
	})
}
