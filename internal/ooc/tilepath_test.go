package ooc

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/matrix"
)

// hostileInput is randomInput with two tiles of the given side made
// special: tile (0, 1) is zeros around NaN (one with a payload and the
// sign bit), ±Inf and −0, and tile (1, 0) is all zero, so compressing
// stores encode both.
func hostileInput(n, side int, seed int64) *matrix.Dense[float64] {
	m := randomInput(n, seed)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			m.Set(r, side+c, 0)
			m.Set(side+r, c, 0)
		}
	}
	specials := []float64{
		math.NaN(), math.Float64frombits(0xfff8_0000_0000_0abc),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	}
	for k, v := range specials {
		m.Set(k%side, side+(k*3)%side, v)
	}
	return m
}

// readCells reads m one At at a time, through the element path for
// every layout.
func readCells(m *Matrix) (*matrix.Dense[float64], error) {
	out := matrix.NewSquare[float64](m.N())
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			out.Set(i, j, m.At(i, j))
		}
	}
	return out, m.Store().Err()
}

// TestTilePathMatchesElementPath: loading by the tile (LoadTiles) and
// by the cell (Load), and unloading by the tile (Unload) and by the
// cell (At), give the same bits in every tile state a store can be in,
// on temporary, durable and compressing stores of 1, 2 and 3 stripes.
func TestTilePathMatchesElementPath(t *testing.T) {
	const n, side = 16, 4
	tile := int64(side * side * 8)
	matBytes := int64(n * n * 8)
	in := hostileInput(n, side, 61)
	zeros := matrix.NewSquare[float64](n)
	writeAfter := func(s *Store) error { // a matrix past the one read, so its range is a hole
		other := NewMatrix(s, n, 2*matBytes, MortonTiledLayout(side))
		if err := other.LoadTiles(in); err != nil {
			return err
		}
		return s.SyncTiles()
	}

	tests := []struct {
		name        string
		layout      LayoutFunc
		cache       int64
		input       *matrix.Dense[float64] // nil: the matrix is never written
		prepare     func(s *Store) error   // brings the loaded matrix to the case's state
		durableOnly bool
		faultEvery  int64 // every raw transfer fails past its retries
		expected    *matrix.Dense[float64]
		expectedErr error
	}{
		{
			name:   "resident dirty",
			layout: MortonTiledLayout(side), cache: matBytes, input: in,
			expected: in,
		},
		{
			name:   "evicted, write-behind in flight",
			layout: MortonTiledLayout(side), cache: 2 * tile, input: in,
			expected: in,
		},
		{
			name:   "written back (home slot or journal)",
			layout: MortonTiledLayout(side), cache: matBytes, input: in,
			prepare:  (*Store).SyncTiles,
			expected: in,
		},
		{
			name:   "applied by Checkpoint",
			layout: MortonTiledLayout(side), cache: matBytes, input: in,
			prepare: func(s *Store) error {
				if err := s.Checkpoint(1); err != nil {
					return err
				}
				return s.SyncTiles()
			},
			durableOnly: true,
			expected:    in,
		},
		{
			name:   "never written",
			layout: MortonTiledLayout(side), cache: matBytes,
			prepare:  writeAfter,
			expected: zeros,
		},
		{
			name:   "row-major, element fallback",
			layout: RowMajorLayout, cache: matBytes, input: in,
			expected: in,
		},
		{
			name:   "read fault, tiles",
			layout: MortonTiledLayout(side), cache: matBytes,
			faultEvery: 1, expectedErr: ErrInjected,
		},
		{
			name:   "read fault, row-major",
			layout: RowMajorLayout, cache: matBytes,
			faultEvery: 1, expectedErr: ErrInjected,
		},
	}
	kinds := []struct {
		name     string
		durable  bool
		compress bool
	}{{"temporary", false, false}, {"durable", true, false}, {"compress", false, true}}

	for _, kind := range kinds {
		for _, stripes := range []int{1, 2, 3} {
			for _, tc := range tests {
				if tc.durableOnly && !kind.durable {
					continue
				}
				for _, tiles := range []bool{true, false} {
					if tc.input == nil && !tiles {
						continue // nothing to load: one run covers the case
					}
					loader := "Load"
					if tiles {
						loader = "LoadTiles"
					}
					t.Run(fmt.Sprintf("%s/%d stripes/%s/%s", kind.name, stripes, tc.name, loader), func(t *testing.T) {
						cfg := Config{
							PageSize: 64, CacheSize: tc.cache,
							Stripes: stripes, StripeUnit: 64, // a tile spans two units
							Compress: kind.compress,
						}
						if tc.faultEvery > 0 {
							cfg.FaultEvery, cfg.MaxRetries, cfg.RetryBackoff = tc.faultEvery, 2, time.Nanosecond
						}
						var s *Store
						var err error
						if kind.durable {
							s, err = CreateAt(filepath.Join(t.TempDir(), "st"), cfg)
						} else {
							s, err = Create(t.TempDir(), cfg)
						}
						if err != nil {
							t.Fatal(err)
						}
						m := NewMatrix(s, n, 0, tc.layout)
						if tc.input != nil {
							if tiles && m.Tiling() != nil {
								err = m.LoadTiles(tc.input)
							} else {
								err = m.Load(tc.input)
							}
							if err != nil {
								t.Fatal(err)
							}
						}
						if tc.prepare != nil {
							if err := tc.prepare(s); err != nil {
								t.Fatal(err)
							}
						}
						writes := s.Stats().TileWrites
						got, err := m.Unload()
						if tc.prepare != nil {
							// Every tile was clean, and Unload unpins clean.
							if err := s.SyncTiles(); err != nil || s.Stats().TileWrites != writes {
								t.Fatalf("Unload of clean tiles: sync %v, %d tile writes", err, s.Stats().TileWrites-writes)
							}
						}
						if tc.expectedErr != nil {
							if !errors.Is(err, tc.expectedErr) || got != nil {
								t.Fatalf("Unload = %v, %v; want nil, %v", got != nil, err, tc.expectedErr)
							}
							s.Abandon()
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						bitsEqual(t, "Unload", tc.expected, got)
						cells, err := readCells(m)
						if err != nil {
							t.Fatal(err)
						}
						bitsEqual(t, "At", tc.expected, cells)
						if err := s.Close(); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// TestTileBufferReuse runs the tile drivers at a 3-tile budget with
// write-behind on, so clean tiles hand their buffers to new ones while
// dirty victims are still being written in the background. Every run must match its in-core engine bit for bit, and
// an Unload right after a run stopped with write-behind in flight must
// match the in-core engine stopped after the same block. CI runs it
// under -race, ten times.
func TestTileBufferReuse(t *testing.T) {
	const n, side = 64, 8
	cfg := Config{
		PageSize: 512, CacheSize: 3 * side * side * 8,
		Stripes: 2, StripeUnit: 256, WriteBehind: 2,
	}
	open := func(t *testing.T) *Store {
		s, err := Create(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	load := func(t *testing.T, s *Store, base int64, in *matrix.Dense[float64]) *Matrix {
		m := NewMatrix(s, n, base, MortonTiledLayout(side))
		if err := m.LoadTiles(in); err != nil {
			t.Fatal(err)
		}
		return m
	}
	unload := func(t *testing.T, m *Matrix) *matrix.Dense[float64] {
		got, err := m.Unload()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Store().Close(); err != nil {
			t.Fatal(err)
		}
		return got
	}

	a, b := randomDense(n, 80), randomDense(n, 81)
	bytes := int64(n * n * 8)
	for _, co := range []int{n, 2 * side} {
		want := matrix.NewSquare[float64](n)
		if co >= n {
			linalg.MulFused(want, a, b, side)
		} else {
			linalg.MulStrassen(want, a, b, co)
		}
		s := open(t)
		ma, mb := load(t, s, 0, a), load(t, s, bytes, b)
		mc := NewMatrix(s, n, 2*bytes, MortonTiledLayout(side))
		if err := RunStrassen(mc, ma, mb, co, RunOptions{}); err != nil {
			t.Fatalf("RunStrassen crossover %d: %v", co, err)
		}
		bitsEqual(t, "RunStrassen", want, unload(t, mc))
	}

	in := randomInput(n, 82)
	for _, g := range []struct {
		name string
		op   core.Op[float64]
		set  core.UpdateSet
	}{
		{"lu", core.LUFactor[float64]{}, core.LU{}},
		{"fw", core.MinPlus[float64]{}, core.Full{}},
	} {
		want := in.Clone()
		core.RunIGEP[float64](want, g.op, g.set, core.WithBaseSize[float64](side))
		s := open(t)
		m := load(t, s, 0, in)
		if err := RunIGEP(m, g.op, g.set, RunOptions{}); err != nil {
			t.Fatalf("RunIGEP %s: %v", g.name, err)
		}
		bitsEqual(t, "RunIGEP "+g.name, want, unload(t, m))

		// Stopped: the run returns without syncing, leaving its dirty
		// victims in write-behind for the Unload to wait on.
		const stop = 40
		want = in.Clone()
		blocks := 0
		core.RunIGEP[float64](want, g.op, g.set, core.WithBaseSize[float64](side),
			core.WithBaseCase[float64](func(_, _, _, _ int) bool {
				blocks++
				return blocks > stop // skip every block after the first stop
			}))
		s = open(t)
		m = load(t, s, 0, in)
		if err := RunIGEP(m, g.op, g.set, RunOptions{StopAfter: stop}); !errors.Is(err, ErrStopped) {
			t.Fatalf("RunIGEP %s with StopAfter: %v, want ErrStopped", g.name, err)
		}
		bitsEqual(t, "RunIGEP "+g.name+" stopped", want, unload(t, m))
	}
}
