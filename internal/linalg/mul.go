package linalg

import (
	"fmt"

	"gep/internal/matrix"
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

// MulTiled computes C += A·B with cache-aware square tiling and a
// 4-way unrolled inner kernel — the cache-aware "tuned BLAS"
// comparator. tile should be sized so three tiles fit in the target
// cache (the cache-aware tuning knob I-GEP does not need).
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

// mulBlock is the shared register-blocked micro-kernel: C[i0:i1,j0:j1]
// += A[i0:i1,k0:k1]·B[k0:k1,j0:j1], k-unrolled by 4.
func mulBlock(c, a, b *matrix.Dense[float64], i0, i1, k0, k1, j0, j1 int) {
	for i := i0; i < i1; i++ {
		ci := c.Row(i)[j0:j1]
		ai := a.Row(i)
		k := k0
		for ; k+3 < k1; k += 4 {
			a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
			b0 := b.Row(k)[j0:j1]
			b1 := b.Row(k + 1)[j0:j1]
			b2 := b.Row(k + 2)[j0:j1]
			b3 := b.Row(k + 3)[j0:j1]
			for j := range ci {
				ci[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < k1; k++ {
			aik := ai[k]
			bk := b.Row(k)[j0:j1]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
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
// into a third, k-unrolled by 4.
func mulFlatBlock(ct, at, bt []float64, n int) {
	for i := 0; i < n; i++ {
		ci := ct[i*n : (i+1)*n]
		ai := at[i*n : (i+1)*n]
		k := 0
		for ; k+3 < n; k += 4 {
			a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
			b0 := bt[k*n : (k+1)*n]
			b1 := bt[(k+1)*n : (k+2)*n]
			b2 := bt[(k+2)*n : (k+3)*n]
			b3 := bt[(k+3)*n : (k+4)*n]
			for j := range ci {
				ci[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < n; k++ {
			aik := ai[k]
			bk := bt[k*n : (k+1)*n]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
