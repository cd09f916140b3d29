package ooc

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"gep/internal/core"
	"gep/internal/matrix"
)

// randomInput builds an n×n matrix whose diagonal dominates, so the
// division-based ops (GaussElim, LUFactor) stay finite.
func randomInput(n int, seed int64) *matrix.Dense[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewSquare[float64](n)
	m.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return float64(n) + rng.Float64()
		}
		return rng.NormFloat64()
	})
	return m
}

func bitsEqual(t *testing.T, label string, want, got *matrix.Dense[float64]) {
	t.Helper()
	n := want.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Float64bits(want.At(i, j)) != math.Float64bits(got.At(i, j)) {
				t.Fatalf("%s: cell (%d,%d) = %x, want %x", label, i, j,
					math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)))
			}
		}
	}
}

// TestRunIGEPBitIdenticalToInCore: the tile-granular out-of-core
// driver produces Float64bits-identical results to the in-core fused
// engines, across ops × sets × tile sides × page sizes, under a cache
// budget that forces eviction and write-behind.
func TestRunIGEPBitIdenticalToInCore(t *testing.T) {
	const n = 32
	cases := []struct {
		name string
		op   core.Op[float64]
		set  core.UpdateSet
	}{
		{"minplus-full", core.MinPlus[float64]{}, core.Full{}},
		{"gauss-gaussian", core.GaussElim[float64]{}, core.Gaussian{}},
		{"lu-lu", core.LUFactor[float64]{}, core.LU{}},
	}
	in := randomInput(n, 42)
	for _, tc := range cases {
		for _, side := range []int{4, 8} {
			// Reference: the in-core fused engine at the same base size,
			// so both runs perform the identical block sequence (orders
			// can differ across base sizes for update functions outside
			// I-GEP's correctness class, e.g. min-plus with the negative
			// cycles a NormFloat64 input has).
			want := in.Clone()
			core.RunIGEP[float64](want, tc.op, tc.set, core.WithBaseSize[float64](side))
			for _, pageSize := range []int{64, 512} {
				// Budget of 4 tiles: a block can pin up to 4, so
				// every block cycles the cache.
				cache := int64(4 * side * side * 8)
				if cache < int64(pageSize) {
					cache = int64(pageSize)
				}
				s, err := Create(t.TempDir(), Config{PageSize: pageSize, CacheSize: cache})
				if err != nil {
					t.Fatal(err)
				}
				m := NewMatrix(s, n, 0, MortonTiledLayout(side))
				if err := m.Load(in); err != nil {
					t.Fatal(err)
				}
				s.ResetStats()
				if err := RunIGEP(m, tc.op, tc.set, RunOptions{}); err != nil {
					t.Fatal(err)
				}
				st := s.Stats()
				if st.TileReads == 0 || st.TileWrites == 0 {
					t.Fatalf("%s side=%d: no tile traffic recorded: %+v", tc.name, side, st)
				}
				got, err := m.Unload()
				if err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, tc.name, want, got)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestRunIGEPMatchesElementPath: tile-granular and element-at-a-time
// out-of-core runs agree bit-for-bit (the two paths share nothing
// below the engine API).
func TestRunIGEPMatchesElementPath(t *testing.T) {
	const n, side = 16, 4
	in := randomInput(n, 9)
	op := core.LUFactor[float64]{}

	s1 := newTestStore(t, 64, 1024)
	m1 := NewMatrix(s1, n, 0, MortonTiledLayout(side))
	if err := m1.Load(in); err != nil {
		t.Fatal(err)
	}
	core.RunIGEP[float64](m1, op, core.LU{}, core.WithBaseSize[float64](side))
	if err := s1.Err(); err != nil {
		t.Fatal(err)
	}
	want, err := m1.Unload()
	if err != nil {
		t.Fatal(err)
	}

	s2 := newTestStore(t, 64, 1024)
	m2 := NewMatrix(s2, n, 0, MortonTiledLayout(side))
	if err := m2.Load(in); err != nil {
		t.Fatal(err)
	}
	if err := RunIGEP(m2, op, core.LU{}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := m2.Unload()
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "tile-vs-element", want, got)
}

// TestRunIGEPNeedsTiling: a row-major matrix has no tile structure and
// the driver must say so instead of faulting garbage.
func TestRunIGEPNeedsTiling(t *testing.T) {
	s := newTestStore(t, 64, 1024)
	m := NewMatrix(s, 8, 0, RowMajorLayout)
	if err := RunIGEP(m, core.MinPlus[float64]{}, core.Full{}, RunOptions{}); err == nil {
		t.Fatal("RunIGEP accepted a layout without tiles")
	}
}

// TestTileElementCoherence: writes through one regime are visible
// through the other, in both directions.
func TestTileElementCoherence(t *testing.T) {
	const n, side = 8, 4
	s := newTestStore(t, 64, 4096)
	m := NewMatrix(s, n, 0, MortonTiledLayout(side))

	// Element write, then tile read.
	m.Set(1, 2, 42)
	tile, err := m.PinTile(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tile.Data[1*side+2] != 42 {
		t.Fatalf("tile did not observe element write: %g", tile.Data[1*side+2])
	}
	// Tile write, then element read.
	tile.Data[3*side+1] = 7
	s.UnpinTile(tile, true)
	if got := m.At(3, 1); got != 7 {
		t.Fatalf("element did not observe tile write: %g", got)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	// Element accesses covered by a checksummed tile are served through
	// the (verified) tile path and may keep the tile resident; a sync
	// still empties the cache.
	if err := s.SyncTiles(); err != nil {
		t.Fatal(err)
	}
	if s.ResidentTiles() != 0 {
		t.Fatalf("sync left %d tiles resident", s.ResidentTiles())
	}
}

// TestPinAliasedTiles: pinning the same tile twice yields the same
// resident buffer (the aliasing TileKernel depends on), and pins nest.
func TestPinAliasedTiles(t *testing.T) {
	const n, side = 8, 4
	s := newTestStore(t, 64, 4096)
	m := NewMatrix(s, n, 0, MortonTiledLayout(side))
	a, err := m.PinTile(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.PinTile(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same tile pinned twice returned distinct buffers")
	}
	s.UnpinTile(a, false)
	s.UnpinTile(b, true)
	if err := s.SyncTiles(); err != nil {
		t.Fatal(err)
	}
}

// TestMortonTiledLayoutReuse is the regression test for the captured-
// parameter bug: one LayoutFunc value used for a small matrix first
// (n < block, which clamps) must not shrink the tile size of a later,
// larger matrix built from the same value.
func TestMortonTiledLayoutReuse(t *testing.T) {
	lf := MortonTiledLayout(8)
	s := newTestStore(t, 64, 4096)

	small := NewMatrix(s, 4, 0, lf) // n < block: clamps to 4...
	if got := small.Tiling().Side; got != 4 {
		t.Fatalf("small matrix tile side = %d, want 4", got)
	}
	large := NewMatrix(s, 16, small.Bytes(), lf) // ...which must not stick
	if got := large.Tiling().Side; got != 8 {
		t.Fatalf("large matrix tile side = %d, want 8 (layout block mutated by earlier clamp)", got)
	}

	// And both matrices address distinct, consistent cells.
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			large.Set(i, j, float64(100*i+j))
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			small.Set(i, j, -float64(10*i+j))
		}
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if got := large.At(i, j); got != float64(100*i+j) {
				t.Fatalf("large At(%d,%d) = %g", i, j, got)
			}
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTileReadsAreDemandFaults: with the tile cache synced and the
// counters reset before a run, every tile the run reads is a demand
// fault (ooc.tile.fault), and the run moves a fixed number of tiles: a
// change in those counts is a change in the transfer set that §4.1
// counts. The first three cases use perfbench's ooc-tiles geometry;
// the last starts from a matrix written through the element path.
func TestTileReadsAreDemandFaults(t *testing.T) {
	const n, side = 512, 64
	cfg := Config{PageSize: 4096, CacheSize: n * n * 8 / 4, Stripes: 2}
	layout := MortonTiledLayout(side)
	// Each input returns the store, synced by the test before run.
	type input func(t *testing.T) (s *Store, run func() error)
	load := func(t *testing.T, s *Store, base int64, in *matrix.Dense[float64]) *Matrix {
		m := NewMatrix(s, in.N(), base, layout)
		if err := m.LoadTiles(in); err != nil {
			t.Fatal(err)
		}
		return m
	}
	lu := func(t *testing.T) (*Store, func() error) {
		s, err := Create(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := load(t, s, 0, randomInput(n, 71))
		return s, func() error { return RunIGEP(m, core.LUFactor[float64]{}, core.LU{}, RunOptions{}) }
	}
	multiply := func(t *testing.T) (*Store, func() error) {
		s, err := Create(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		bytes := int64(n * n * 8)
		a, b := load(t, s, 0, randomDense(n, 72)), load(t, s, bytes, randomDense(n, 73))
		c := NewMatrix(s, n, 2*bytes, layout)
		return s, func() error { return RunStrassen(c, a, b, n, RunOptions{}) }
	}
	resume := func(t *testing.T) (*Store, func() error) {
		const every = 64
		dir := filepath.Join(t.TempDir(), "st")
		s, err := CreateAt(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := load(t, s, 0, randomInput(n, 74))
		if err := s.Checkpoint(0); err != nil {
			t.Fatal(err)
		}
		half := int64(len(core.IGEPBlocks(n, side, core.LU{}, true)) / 2)
		err = RunIGEP(m, core.LUFactor[float64]{}, core.LU{}, RunOptions{CheckpointEvery: every, StopAfter: half})
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("crash run: %v, want ErrStopped", err)
		}
		s.Abandon()
		rcfg := cfg
		rcfg.Stripes = 0 // the journal header holds the geometry
		if s, err = Open(dir, rcfg); err != nil {
			t.Fatal(err)
		}
		info, err := s.Recover()
		if err != nil {
			t.Fatal(err)
		}
		m = NewMatrix(s, n, 0, layout)
		return s, func() error {
			return RunIGEP(m, core.LUFactor[float64]{}, core.LU{},
				RunOptions{CheckpointEvery: every, StartBlock: info.Frontier})
		}
	}
	elementLoad := func(t *testing.T) (*Store, func() error) {
		const n, side = 256, 32
		s, err := Create(t.TempDir(), Config{PageSize: 4096, CacheSize: n * n * 8 / 2})
		if err != nil {
			t.Fatal(err)
		}
		m := NewMatrix(s, n, 0, MortonTiledLayout(side))
		if err := m.Load(randomInput(n, 75)); err != nil {
			t.Fatal(err)
		}
		return s, func() error { return RunIGEP(m, core.LUFactor[float64]{}, core.LU{}, RunOptions{}) }
	}

	type transfers struct{ reads, writes int64 }
	cases := []struct {
		name     string
		input    input
		expected transfers
	}{
		{"lu", lu, transfers{180, 95}},
		{"classical multiply", multiply, transfers{1024, 64}},
		{"resume after crash", resume, transfers{136, 66}},
		{"lu after element load", elementLoad, transfers{111, 74}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, run := tc.input(t)
			defer s.Close()
			if err := s.SyncTiles(); err != nil {
				t.Fatal(err)
			}
			s.ResetStats()
			faults := tileFaultCount.Value()
			if err := run(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if got := tileFaultCount.Value() - faults; st.TileReads != got {
				t.Errorf("%d tile reads but %d demand faults", st.TileReads, got)
			}
			if got := (transfers{st.TileReads, st.TileWrites}); got != tc.expected {
				t.Errorf("tile reads/writes = %d/%d, want %d/%d",
					got.reads, got.writes, tc.expected.reads, tc.expected.writes)
			}
		})
	}
}
