package matrix

import (
	"fmt"
	mathbits "math/bits"
	"strings"
)

// Bits is a dense rows×cols boolean matrix packed 64 cells per uint64:
// bit b of a row word holds one cell, so row operations (union, GF(2)
// row addition) run word-parallel — 64 cells per machine instruction —
// instead of cell-at-a-time. It mirrors Dense[bool]: row-major word
// storage, strided sub-views (including views whose first column falls
// mid-word), and it implements Grid[bool]/Rect[bool], so every generic
// engine in internal/core runs on it unchanged. The packed fast paths
// (internal/core/bits.go) detect it by a type assertion to *Bits, as
// the flat fast path detects *Dense[T] with Flat.
//
// Storage layout: cell (i, j) lives in data[i*stride + (off+j)/64] at
// bit (off+j)%64. off is 0 for matrices created with NewBits and may be
// 1..63 for sub-views starting at a word-unaligned column; stride is
// the parent's word stride for views. Word ops on views mask the edge
// words, so a view never reads or writes cells outside its rectangle.
type Bits struct {
	data   []uint64
	rows   int
	cols   int
	stride int // words per row step in the backing storage
	off    int // bit offset of column 0 within the row's first word
}

// NewBits returns a zero-initialized rows×cols packed boolean matrix.
func NewBits(rows, cols int) *Bits {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	stride := (cols + 63) >> 6
	return &Bits{
		data:   make([]uint64, rows*stride),
		rows:   rows,
		cols:   cols,
		stride: stride,
	}
}

// NewBitsSquare returns a zero-initialized n×n packed boolean matrix.
func NewBitsSquare(n int) *Bits { return NewBits(n, n) }

// Rows returns the number of rows.
func (b *Bits) Rows() int { return b.rows }

// Cols returns the number of columns.
func (b *Bits) Cols() int { return b.cols }

// N returns the side length of a square matrix and panics otherwise;
// it makes *Bits satisfy Grid[bool].
func (b *Bits) N() int {
	if b.rows != b.cols {
		panic(fmt.Sprintf("matrix: N() on non-square %dx%d matrix", b.rows, b.cols))
	}
	return b.rows
}

// Aligned reports whether column 0 sits on a word boundary (true for
// all matrices created with NewBits; false for sub-views at
// word-unaligned column offsets). The parallel packed engines require
// an aligned matrix so concurrent quadrants never share an edge word.
func (b *Bits) Aligned() bool { return b.off == 0 }

func (b *Bits) check(i, j int) {
	if uint(i) >= uint(b.rows) || uint(j) >= uint(b.cols) {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, b.rows, b.cols))
	}
}

// At returns the cell at row i, column j.
func (b *Bits) At(i, j int) bool {
	b.check(i, j)
	a := b.off + j
	return b.data[i*b.stride+a>>6]>>(uint(a)&63)&1 == 1
}

// Set stores v at row i, column j.
func (b *Bits) Set(i, j int, v bool) {
	b.check(i, j)
	a := b.off + j
	w := &b.data[i*b.stride+a>>6]
	mask := uint64(1) << (uint(a) & 63)
	if v {
		*w |= mask
	} else {
		*w &^= mask
	}
}

// Sub returns an r×c view of b starting at (i, j). The view shares
// storage with b: writes through either are visible in both. Views may
// start at any column — word-unaligned views carry a bit offset and
// all word operations mask their edge words.
func (b *Bits) Sub(i, j, r, c int) *Bits {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > b.rows || j+c > b.cols {
		panic(fmt.Sprintf("matrix: Sub(%d,%d,%d,%d) out of range %dx%d", i, j, r, c, b.rows, b.cols))
	}
	a := b.off + j
	return &Bits{
		data:   b.data[i*b.stride+a>>6:],
		rows:   r,
		cols:   c,
		stride: b.stride,
		off:    a & 63,
	}
}

// RowSpan returns the word slice covering columns [j0, j1) of row i,
// with the masks word operations must apply at the edges: words[0]
// under firstMask, words[1:len-1] in full, and words[len-1] under
// lastMask. When the span fits one word, firstMask == lastMask == the
// combined mask. The caller must keep bits outside the masks intact —
// this is what makes word kernels exact on unaligned sub-views.
func (b *Bits) RowSpan(i, j0, j1 int) (words []uint64, firstMask, lastMask uint64) {
	if uint(i) >= uint(b.rows) || j0 < 0 || j1 > b.cols || j0 >= j1 {
		panic(fmt.Sprintf("matrix: RowSpan(%d, %d, %d) out of range %dx%d", i, j0, j1, b.rows, b.cols))
	}
	a0 := b.off + j0
	a1 := b.off + j1 // exclusive
	w0 := a0 >> 6
	w1 := (a1 - 1) >> 6
	words = b.data[i*b.stride+w0 : i*b.stride+w1+1]
	firstMask = ^uint64(0) << (uint(a0) & 63)
	lastMask = ^uint64(0) >> (63 - (uint(a1-1) & 63))
	if w0 == w1 {
		m := firstMask & lastMask
		firstMask, lastMask = m, m
	}
	return words, firstMask, lastMask
}

// Bits64 reads w (1..64) consecutive cells of row i starting at column
// j into the low bits of a word: bit p of the result is cell (i, j+p).
// It is the table-index extraction of the four-Russians kernels.
func (b *Bits) Bits64(i, j, w int) uint64 {
	if w < 1 || w > 64 {
		panic(fmt.Sprintf("matrix: Bits64 width %d out of range", w))
	}
	b.check(i, j)
	b.check(i, j+w-1)
	a := b.off + j
	sh := uint(a) & 63
	base := i*b.stride + a>>6
	v := b.data[base] >> sh
	if sh+uint(w) > 64 {
		v |= b.data[base+1] << (64 - sh)
	}
	if w < 64 {
		v &= 1<<uint(w) - 1
	}
	return v
}

// Fill sets every cell to v.
func (b *Bits) Fill(v bool) {
	if b.cols == 0 {
		return
	}
	var fill uint64
	if v {
		fill = ^uint64(0)
	}
	for i := 0; i < b.rows; i++ {
		words, fm, lm := b.RowSpan(i, 0, b.cols)
		n := len(words)
		words[0] = words[0]&^fm | fill&fm
		for w := 1; w < n-1; w++ {
			words[w] = fill
		}
		if n > 1 {
			words[n-1] = words[n-1]&^lm | fill&lm
		}
	}
}

// CopyFrom copies src into b; dimensions must match. Same-phase pairs
// (equal column offset modulo 64 — in particular any two aligned
// matrices) copy word-at-a-time; mixed phases fall back to per-cell.
func (b *Bits) CopyFrom(src *Bits) {
	if b.rows != src.rows || b.cols != src.cols {
		panic(fmt.Sprintf("matrix: CopyFrom dimension mismatch %dx%d vs %dx%d", b.rows, b.cols, src.rows, src.cols))
	}
	if b.cols == 0 {
		return
	}
	if b.off != src.off {
		for i := 0; i < b.rows; i++ {
			for j := 0; j < b.cols; j++ {
				b.Set(i, j, src.At(i, j))
			}
		}
		return
	}
	for i := 0; i < b.rows; i++ {
		dw, fm, lm := b.RowSpan(i, 0, b.cols)
		sw, _, _ := src.RowSpan(i, 0, b.cols)
		n := len(dw)
		dw[0] = dw[0]&^fm | sw[0]&fm
		for w := 1; w < n-1; w++ {
			dw[w] = sw[w]
		}
		if n > 1 {
			dw[n-1] = dw[n-1]&^lm | sw[n-1]&lm
		}
	}
}

// Clone returns a deep copy of b as an aligned matrix.
func (b *Bits) Clone() *Bits {
	out := NewBits(b.rows, b.cols)
	out.CopyFrom(b)
	return out
}

// SwapRows exchanges rows i and j in place (a GF(2) elimination
// pivoting primitive). Cells outside the matrix's columns are left
// untouched, so views swap safely.
func (b *Bits) SwapRows(i, j int) {
	if i == j || b.cols == 0 {
		return
	}
	wi, fm, lm := b.RowSpan(i, 0, b.cols)
	wj, _, _ := b.RowSpan(j, 0, b.cols)
	n := len(wi)
	mask := fm
	for w := 0; w < n; w++ {
		if w > 0 {
			mask = ^uint64(0)
		}
		if w == n-1 {
			mask &= lm
		}
		t := (wi[w] ^ wj[w]) & mask
		wi[w] ^= t
		wj[w] ^= t
	}
}

// CountRange returns the number of set cells in columns [j0, j1) of
// row i (word-parallel popcount).
func (b *Bits) CountRange(i, j0, j1 int) int {
	if j0 >= j1 {
		return 0
	}
	words, fm, lm := b.RowSpan(i, j0, j1)
	n := len(words)
	if n == 1 {
		return mathbits.OnesCount64(words[0] & fm)
	}
	c := mathbits.OnesCount64(words[0]&fm) + mathbits.OnesCount64(words[n-1]&lm)
	for w := 1; w < n-1; w++ {
		c += mathbits.OnesCount64(words[w])
	}
	return c
}

// Count returns the total number of set cells.
func (b *Bits) Count() int {
	c := 0
	for i := 0; i < b.rows; i++ {
		c += b.CountRange(i, 0, b.cols)
	}
	return c
}

// EqualBits reports whether two packed matrices have identical shape
// and cell content (storage offsets and slack bits are ignored).
func EqualBits(a, b *Bits) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

// PackBool converts a row-major boolean matrix into packed form.
func PackBool(d *Dense[bool]) *Bits {
	out := NewBits(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		row := d.Row(i)
		for j, v := range row {
			if v {
				out.Set(i, j, true)
			}
		}
	}
	return out
}

// UnpackBool converts a packed matrix back to row-major booleans.
func UnpackBool(b *Bits) *Dense[bool] {
	out := New[bool](b.rows, b.cols)
	for i := 0; i < b.rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = b.At(i, j)
		}
	}
	return out
}

// PadBitsPow2 returns an m×m copy of the square packed matrix a, where
// m is the smallest power of two >= a.N(); new cells hold fill. It is
// PadPow2 for packed matrices.
func PadBitsPow2(a *Bits, fill bool) *Bits {
	n := a.N()
	m := NextPow2(n)
	if m == n {
		return a.Clone()
	}
	out := NewBitsSquare(m)
	if fill {
		out.Fill(true)
	}
	out.Sub(0, 0, n, n).CopyFrom(a)
	return out
}

// String renders the matrix for debugging; large matrices are elided.
func (b *Bits) String() string {
	const maxSide = 64
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d bits", b.rows, b.cols)
	if b.rows > maxSide || b.cols > maxSide {
		sb.WriteString(" (elided)")
		return sb.String()
	}
	sb.WriteByte('\n')
	for i := 0; i < b.rows; i++ {
		for j := 0; j < b.cols; j++ {
			if b.At(i, j) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

var (
	_ Grid[bool] = (*Bits)(nil)
	_ Rect[bool] = (*Bits)(nil)
)
