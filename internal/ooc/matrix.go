package ooc

import (
	"encoding/binary"
	"fmt"
	"math"

	"gep/internal/matrix"
)

// Matrix is an n×n float64 matrix living in a Store; it implements
// matrix.Grid[float64], so all GEP algorithms run on it unchanged —
// the paper's point that the in-core cache-oblivious code works
// out-of-core without modification. When its layout is tile-contiguous
// (MortonTiledLayout), the tile API (PinTile) additionally exposes
// whole aligned quadrants as resident flat buffers for the
// tile-granular runtime of run.go.
type Matrix struct {
	s      *Store
	n      int
	base   int64
	index  func(i, j int) int64
	tiling *Tiling
}

// Layout is the resolved cell→element mapping of an n×n matrix.
type Layout struct {
	// Index maps cell (i, j) to its element index (units of 8 bytes)
	// relative to the matrix base.
	Index func(i, j int) int64
	// Tile describes the layout's tile-contiguity when it has any:
	// non-nil means every aligned Side×Side quadrant occupies one
	// contiguous, row-major run of Side² elements. Element-contiguous
	// layouts (row-major) leave it nil, and the tile API is unavailable.
	Tile *Tiling
}

// Tiling is the tile geometry of a tile-contiguous layout.
type Tiling struct {
	// Side is the tile edge in elements.
	Side int
	// Index returns the element index of tile (ti, tj)'s first cell;
	// the tile's Side² elements follow contiguously in row-major order.
	Index func(ti, tj int) int64
}

// LayoutFunc instantiates a layout for a given matrix side; see
// RowMajorLayout and MortonTiledLayout. A LayoutFunc must be reusable:
// calling it for several sizes yields independent layouts.
type LayoutFunc func(n int) Layout

// RowMajorLayout stores rows contiguously. It has no tile structure.
func RowMajorLayout(n int) Layout {
	return Layout{
		Index: func(i, j int) int64 { return int64(i)*int64(n) + int64(j) },
	}
}

// MortonTiledLayout stores block×block tiles in Morton order with
// row-major elements inside each tile, so recursive quadrants are
// contiguous on disk — the natural external-memory layout for I-GEP.
// The block size is clamped to the matrix side per instantiation (the
// clamp is local to each call of the returned LayoutFunc, so one
// LayoutFunc value is safely reusable across matrix sizes).
func MortonTiledLayout(block int) LayoutFunc {
	return func(n int) Layout {
		b := block
		if n < b {
			b = n
		}
		t := matrix.NewTiled[struct{}](n, b)
		return Layout{
			Index: func(i, j int) int64 { return int64(t.Index(i, j)) },
			Tile: &Tiling{
				Side:  b,
				Index: func(ti, tj int) int64 { return int64(t.Index(ti*b, tj*b)) },
			},
		}
	}
}

// NewMatrix places an n×n matrix at byte offset base of the store.
func NewMatrix(s *Store, n int, base int64, layout LayoutFunc) *Matrix {
	if base%8 != 0 {
		panic(fmt.Sprintf("ooc: base %d not 8-aligned", base))
	}
	l := layout(n)
	return &Matrix{s: s, n: n, base: base, index: l.Index, tiling: l.Tile}
}

// N implements matrix.Grid.
func (m *Matrix) N() int { return m.n }

// At implements matrix.Grid. I/O failures surface via Store.Err.
func (m *Matrix) At(i, j int) float64 {
	return m.s.ReadFloat(m.base + m.index(i, j)*8)
}

// Set implements matrix.Grid. I/O failures surface via Store.Err.
func (m *Matrix) Set(i, j int, v float64) {
	m.s.WriteFloat(m.base+m.index(i, j)*8, v)
}

// Store returns the backing store.
func (m *Matrix) Store() *Store { return m.s }

// Bytes returns the on-disk footprint of the matrix.
func (m *Matrix) Bytes() int64 { return int64(m.n) * int64(m.n) * 8 }

// Tiling returns the matrix's tile geometry, or nil when its layout is
// not tile-contiguous.
func (m *Matrix) Tiling() *Tiling { return m.tiling }

// TileOffset returns the byte offset of tile (ti, tj). The matrix must
// have a tiling.
func (m *Matrix) TileOffset(ti, tj int) int64 {
	return m.base + m.tiling.Index(ti, tj)*8
}

// PinTile pins the tile containing cell block (ti·Side, tj·Side); see
// Store.PinTile. The matrix must have a tiling.
func (m *Matrix) PinTile(ti, tj int) (*Tile, error) {
	return m.s.PinTile(m.TileOffset(ti, tj), m.tiling.Side)
}

// Load copies a dense in-core matrix into the store. It panics if the
// sizes differ (API misuse) and returns the store's first I/O error.
func (m *Matrix) Load(src *matrix.Dense[float64]) error {
	if src.N() != m.n {
		panic("ooc: Load size mismatch")
	}
	for i := 0; i < m.n; i++ {
		row := src.Row(i)
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	return m.s.Err()
}

// LoadFunc fills the matrix tile by tile from f(i, j) — the scalable
// load path: nothing is staged densely in RAM, each tile is pinned
// fresh (no read), filled, and written back through the checksummed
// tile path, so a matrix far larger than RAM loads within the tile
// cache's budget (Config.CacheSize of resident tiles, plus the
// write-behind in flight). Requires a tile-contiguous layout.
func (m *Matrix) LoadFunc(f func(i, j int) float64) error {
	return m.eachTile("LoadFunc", true, func(data []float64, i0, j0 int) {
		side := m.tiling.Side
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				data[r*side+c] = f(i0+r, j0+c)
			}
		}
	})
}

// LoadTiles copies a dense in-core matrix into the store through the
// tile path (see LoadFunc), one copy per row of each tile. It panics
// if the sizes differ.
func (m *Matrix) LoadTiles(src *matrix.Dense[float64]) error {
	if src.N() != m.n {
		panic("ooc: LoadTiles size mismatch")
	}
	return m.eachTile("LoadTiles", true, func(data []float64, i0, j0 int) {
		side := m.tiling.Side
		for r := 0; r < side; r++ {
			copy(data[r*side:(r+1)*side], src.Row(i0 + r)[j0:j0+side])
		}
	})
}

// Unload copies the matrix back into a fresh dense matrix. A
// tile-contiguous matrix moves a tile at a time: each tile is pinned
// once, its rows are copied out, and it is unpinned clean. Other
// layouts go cell by cell through At. On an I/O error, including the
// store's sticky one, Unload returns nil and the error.
func (m *Matrix) Unload() (*matrix.Dense[float64], error) {
	out := matrix.NewSquare[float64](m.n)
	var err error
	if m.tiling == nil {
		for i := 0; i < m.n; i++ {
			row := out.Row(i)
			for j := range row {
				row[j] = m.At(i, j)
			}
		}
		err = m.s.Err()
	} else {
		err = m.eachTile("Unload", false, func(data []float64, i0, j0 int) {
			side := m.tiling.Side
			for r := 0; r < side; r++ {
				copy(out.Row(i0 + r)[j0:j0+side], data[r*side:(r+1)*side])
			}
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Digest returns an XXH64 digest of the matrix's logical contents,
// read tile by tile in row-major tile order through the verified tile
// path (per-tile sums chained into one). Two matrices with identical
// contents and tiling produce identical digests regardless of
// striping, compression, journaling, or crash/recovery history — the
// bit-identical-resume check the recovery matrix relies on. Requires a
// tile-contiguous layout.
func (m *Matrix) Digest() (uint64, error) {
	var buf, sums []byte
	var sumb [8]byte
	err := m.eachTile("Digest", false, func(data []float64, _, _ int) {
		if buf == nil {
			buf = make([]byte, len(data)*8)
		}
		for i, v := range data {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		binary.LittleEndian.PutUint64(sumb[:], Checksum(buf))
		sums = append(sums, sumb[:]...)
	})
	if err != nil {
		return 0, err
	}
	return Checksum(sums), nil
}

// eachTile visits the tiles in row-major tile order. It pins each one,
// fresh and zeroed when fill is set and read otherwise, passes its
// data and first cell to f, and unpins it, dirty when fill is set. It
// returns the first pin error or the store's sticky error; what names
// the caller in the error of a layout without tiles.
func (m *Matrix) eachTile(what string, fill bool, f func(data []float64, i0, j0 int)) error {
	if m.tiling == nil {
		return fmt.Errorf("ooc: %s needs a tile-contiguous layout (use MortonTiledLayout)", what)
	}
	pin := m.s.PinTile
	if fill {
		pin = m.s.PinTileZero
	}
	side := m.tiling.Side
	nt := m.n / side
	for ti := 0; ti < nt; ti++ {
		for tj := 0; tj < nt; tj++ {
			t, err := pin(m.TileOffset(ti, tj), side)
			if err != nil {
				return err
			}
			f(t.Data, ti*side, tj*side)
			m.s.UnpinTile(t, fill)
		}
	}
	return m.s.Err()
}

// Rect is a rows×cols float64 region of a Store in row-major order; it
// implements matrix.Rect[float64] and backs C-GEP's aux matrices in
// the out-of-core experiments.
type Rect struct {
	s    *Store
	cols int64
	base int64
}

// NewRect places a rows×cols rect at byte offset base.
func NewRect(s *Store, rows, cols int, base int64) *Rect {
	if base%8 != 0 {
		panic(fmt.Sprintf("ooc: base %d not 8-aligned", base))
	}
	return &Rect{s: s, cols: int64(cols), base: base}
}

// At implements matrix.Rect.
func (r *Rect) At(i, j int) float64 {
	return r.s.ReadFloat(r.base + (int64(i)*r.cols+int64(j))*8)
}

// Set implements matrix.Rect.
func (r *Rect) Set(i, j int, v float64) {
	r.s.WriteFloat(r.base+(int64(i)*r.cols+int64(j))*8, v)
}

// TiledRect is a rows×cols float64 region stored as tile×tile blocks
// (tiles in row-major order, row-major inside each tile), giving 2-D
// locality for rectangular data such as C-GEP's aux matrices — whose
// access pattern is column bands for u0/u1 and row bands for v0/v1,
// both pathological in a plain row-major page layout.
type TiledRect struct {
	s           *Store
	rows, cols  int
	tile        int
	tilesPerRow int
	base        int64
}

// NewTiledRect places a rows×cols tiled rect at byte offset base; its
// on-disk footprint is Bytes() (tiles are padded up to full size).
func NewTiledRect(s *Store, rows, cols, tile int, base int64) *TiledRect {
	if base%8 != 0 {
		panic(fmt.Sprintf("ooc: base %d not 8-aligned", base))
	}
	if tile < 1 {
		panic("ooc: tile must be >= 1")
	}
	if tile > rows && rows > 0 {
		tile = rows
	}
	if tile > cols && cols > 0 {
		tile = cols
	}
	return &TiledRect{
		s: s, rows: rows, cols: cols, tile: tile,
		tilesPerRow: (cols + tile - 1) / tile,
		base:        base,
	}
}

// Bytes returns the on-disk footprint including tile padding.
func (r *TiledRect) Bytes() int64 {
	tr := (r.rows + r.tile - 1) / r.tile
	return int64(tr) * int64(r.tilesPerRow) * int64(r.tile) * int64(r.tile) * 8
}

func (r *TiledRect) index(i, j int) int64 {
	ti, tj := i/r.tile, j/r.tile
	within := (i%r.tile)*r.tile + j%r.tile
	return (int64(ti)*int64(r.tilesPerRow)+int64(tj))*int64(r.tile)*int64(r.tile) + int64(within)
}

// At implements matrix.Rect.
func (r *TiledRect) At(i, j int) float64 {
	return r.s.ReadFloat(r.base + r.index(i, j)*8)
}

// Set implements matrix.Rect.
func (r *TiledRect) Set(i, j int, v float64) {
	r.s.WriteFloat(r.base+r.index(i, j)*8, v)
}

var (
	_ matrix.Grid[float64] = (*Matrix)(nil)
	_ matrix.Rect[float64] = (*Rect)(nil)
	_ matrix.Rect[float64] = (*TiledRect)(nil)
)
