package linalg

import (
	"fmt"

	"gep/internal/matrix"
	"gep/internal/vec"
)

// MulFlops returns the floating-point operation count of an n×n matrix
// multiplication (the figure-of-merit denominator for Figure 11).
func MulFlops(n int) float64 { return 2 * float64(n) * float64(n) * float64(n) }

func checkMulDims(c, a, b *matrix.Dense[float64]) int {
	n := c.N()
	if a.N() != n || b.N() != n {
		panic(fmt.Sprintf("linalg: size mismatch C=%d A=%d B=%d", n, a.N(), b.N()))
	}
	return n
}

// MulNaive computes C += A·B with the classic i,k,j triple loop — the
// unblocked GEP-order baseline. O(n³/B) cache misses.
func MulNaive(c, a, b *matrix.Dense[float64]) {
	n := checkMulDims(c, a, b)
	for i := 0; i < n; i++ {
		ci := c.Row(i)
		ai := a.Row(i)
		for k := 0; k < n; k++ {
			aik := ai[k]
			bk := b.Row(k)
			for j := 0; j < n; j++ {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// MulJKI computes C += A·B in j,k,i order — a deliberately
// cache-hostile ordering (column walks in row-major storage), used by
// the layout/ordering ablation.
func MulJKI(c, a, b *matrix.Dense[float64]) {
	n := checkMulDims(c, a, b)
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			bkj := b.At(k, j)
			for i := 0; i < n; i++ {
				c.Set(i, j, c.At(i, j)+a.At(i, k)*bkj)
			}
		}
	}
}

// MulTiled computes C += A·B with cache-aware square tiling over
// I-GEP's row kernel — the cache-aware "tuned BLAS" comparator. tile
// should be sized so three tiles fit in the target cache (the
// cache-aware tuning knob I-GEP does not need).
func MulTiled(c, a, b *matrix.Dense[float64], tile int) {
	n := checkMulDims(c, a, b)
	if tile < 1 {
		panic("linalg: tile must be >= 1")
	}
	for ii := 0; ii < n; ii += tile {
		iMax := minInt(ii+tile, n)
		for kk := 0; kk < n; kk += tile {
			kMax := minInt(kk+tile, n)
			for jj := 0; jj < n; jj += tile {
				jMax := minInt(jj+tile, n)
				mulBlock(c, a, b, ii, iMax, kk, kMax, jj, jMax)
			}
		}
	}
}

// mulBlock is the shared micro-kernel: C[i0:i1,j0:j1] +=
// A[i0:i1,k0:k1]·B[k0:k1,j0:j1] through vec.MulAddRows, the row kernel
// of I-GEP's multiply, so the tiled schedule and the cache-oblivious one
// differ only in schedule.
func mulBlock(c, a, b *matrix.Dense[float64], i0, i1, k0, k1, j0, j1 int) {
	x, xs := from(c, i0, j0)
	u, us := from(a, i0, k0)
	v, vs := from(b, k0, j0)
	vec.MulAddRows(vec.Block[float64]{X: x, U: u, V: v, XS: xs, US: us, VS: vs, M: i1 - i0, K: k1 - k0, N: j1 - j0})
}

// from returns m's row-major backing from cell (i, j) on, and its row
// stride.
func from(m *matrix.Dense[float64], i, j int) ([]float64, int) {
	data, stride, _ := matrix.Flat[float64](m)
	return data[i*stride+j:], stride
}

// MulTiledMorton multiplies with the all-D 8-way recursion of MulFused
// but over bit-interleaved (Morton-tiled) operands, the paper's §4.2
// layout optimization, kept as the comparator of the layout ablation;
// conversion costs are the caller's to include, as the paper does.
func MulTiledMorton(c, a, b *matrix.Tiled[float64], base int) {
	n := c.N()
	if a.N() != n || b.N() != n {
		panic("linalg: size mismatch")
	}
	if c.Block() != base || a.Block() != base || b.Block() != base {
		panic("linalg: MulTiledMorton requires tile size == base")
	}
	mulMortonRec(c, a, b, 0, 0, 0, n, base)
}

func mulMortonRec(c, a, b *matrix.Tiled[float64], i0, j0, k0, s, base int) {
	if s <= base {
		ct := c.TileData(i0/base, j0/base)
		at := a.TileData(i0/base, k0/base)
		bt := b.TileData(k0/base, j0/base)
		mulFlatBlock(ct, at, bt, base)
		return
	}
	h := s / 2
	mulMortonRec(c, a, b, i0, j0, k0, h, base)
	mulMortonRec(c, a, b, i0, j0+h, k0, h, base)
	mulMortonRec(c, a, b, i0+h, j0, k0, h, base)
	mulMortonRec(c, a, b, i0+h, j0+h, k0, h, base)
	mulMortonRec(c, a, b, i0, j0, k0+h, h, base)
	mulMortonRec(c, a, b, i0, j0+h, k0+h, h, base)
	mulMortonRec(c, a, b, i0+h, j0, k0+h, h, base)
	mulMortonRec(c, a, b, i0+h, j0+h, k0+h, h, base)
}

// mulFlatBlock multiplies two contiguous row-major base×base tiles
// into a third through vec.MulAddRows.
func mulFlatBlock(ct, at, bt []float64, n int) {
	vec.MulAddRows(vec.Block[float64]{X: ct, U: at, V: bt, XS: n, US: n, VS: n, M: n, K: n, N: n})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
