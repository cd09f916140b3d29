package linalg

import (
	"fmt"
	"math"

	"gep/internal/matrix"
	"gep/internal/vec"
)

// Gaussian elimination / LU decomposition without pivoting, in the
// paper's three forms (§4.2, Figure 10): naive GEP, cache-aware tiled
// ("BLAS substitute"), and cache-oblivious I-GEP (LUIGEP, fused.go,
// through the core engine). All variants compute
// the in-place LU factorization: after the call, the strict lower
// triangle holds L (unit diagonal implicit) and the upper triangle
// holds U. Inputs must be factorizable without pivoting (e.g.
// diagonally dominant).

// GEFlops returns the flop count of an n×n elimination (~2n³/3), the
// %-of-peak denominator for Figure 10.
func GEFlops(n int) float64 {
	nf := float64(n)
	return 2 * nf * nf * nf / 3
}

// LUGEP is the pure GEP-form baseline: the triple loop of Figure 1
// over the LU update set with f(x,u,v,w) = x/w when j == k and
// x − u·v otherwise. One division per multiplier, O(n³/B) misses.
func LUGEP(c *matrix.Dense[float64]) {
	n := c.N()
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			ci := c.Row(i)
			ck := c.Row(k)
			// j == k: multiplier (the division stays in the inner
			// loop structure, as written GEP performs it).
			ci[k] = ci[k] / ck[k]
			for j := k + 1; j < n; j++ {
				ci[j] -= ci[k] * ck[j]
			}
		}
	}
}

// LUGEPOpt is the paper's "reasonably optimized GEP": divisions
// hoisted out of the innermost loop (o(n³) divisions) and rows
// accessed through slices. Still O(n³/B) misses — the optimization the
// in-core plots of Figures 8 and 10 compare I-GEP against.
func LUGEPOpt(c *matrix.Dense[float64]) {
	n := c.N()
	for k := 0; k < n; k++ {
		ck := c.Row(k)
		piv := ck[k]
		inv := 1 / piv
		for i := k + 1; i < n; i++ {
			ci := c.Row(i)
			m := ci[k] * inv
			ci[k] = m
			for j := k + 1; j < n; j++ {
				ci[j] -= m * ck[j]
			}
		}
	}
}

// LUTiled is the cache-aware blocked right-looking factorization (the
// structure of tuned BLAS/FLAME implementations): factor a column
// panel, apply its eliminations to the row panel, then update the
// trailing submatrix with a tiled matrix multiply. Its rows run
// through I-GEP's row kernels (vec.SubRow, vec.MulSubRows).
func LUTiled(c *matrix.Dense[float64], tile int) {
	n := c.N()
	if tile < 1 {
		panic("linalg: tile must be >= 1")
	}
	for kk := 0; kk < n; kk += tile {
		kMax := minInt(kk+tile, n)
		// 1. Panel factorization: columns kk..kMax over all rows below.
		for k := kk; k < kMax; k++ {
			ck := c.Row(k)
			inv := 1 / ck[k]
			for i := k + 1; i < n; i++ {
				ci := c.Row(i)
				m := ci[k] * inv
				ci[k] = m
				vec.SubRow(ci[k+1:kMax], ck[k+1:kMax], m)
			}
		}
		// 2. Row-panel update: apply L11's eliminations to A12
		// (forward substitution with the unit lower triangle).
		for k := kk; k < kMax; k++ {
			ck := c.Row(k)
			for i := k + 1; i < kMax; i++ {
				ci := c.Row(i)
				vec.SubRow(ci[kMax:], ck[kMax:], ci[k])
			}
		}
		// 3. Trailing update: A22 -= L21 · U12, tiled.
		for ii := kMax; ii < n; ii += tile {
			iTop := minInt(ii+tile, n)
			for jj := kMax; jj < n; jj += tile {
				jTop := minInt(jj+tile, n)
				negMulBlock(c, ii, iTop, kk, kMax, jj, jTop)
			}
		}
	}
}

// negMulBlock computes C[i0:i1, j0:j1] -= C[i0:i1, k0:k1]·C[k0:k1, j0:j1]
// (L-panel times U-panel of the same matrix; the regions are disjoint)
// through vec.MulSubRows, the row kernel of I-GEP's LU.
func negMulBlock(c *matrix.Dense[float64], i0, i1, k0, k1, j0, j1 int) {
	x, xs := from(c, i0, j0)
	u, us := from(c, i0, k0)
	v, vs := from(c, k0, j0)
	vec.MulSubRows(vec.Block[float64]{X: x, U: u, V: v, XS: xs, US: us, VS: vs, M: i1 - i0, K: k1 - k0, N: j1 - j0})
}

// SolveLU solves A·x = b given the packed in-place LU factors produced
// by any of the factorizations above (unit lower triangle implicit).
func SolveLU(lu *matrix.Dense[float64], b []float64) []float64 {
	n := lu.N()
	if len(b) != n {
		panic(fmt.Sprintf("linalg: SolveLU got %d-vector for %dx%d system", len(b), n, n))
	}
	y := make([]float64, n)
	copy(y, b)
	// Forward substitution with L (unit diagonal).
	for i := 0; i < n; i++ {
		ri := lu.Row(i)
		s := y[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * y[j]
		}
		y[i] = s
	}
	// Backward substitution with U.
	for i := n - 1; i >= 0; i-- {
		ri := lu.Row(i)
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * y[j]
		}
		y[i] = s / ri[i]
	}
	return y
}

// MatVec returns A·x.
func MatVec(a *matrix.Dense[float64], x []float64) []float64 {
	n := a.N()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		ri := a.Row(i)
		s := 0.0
		for j, v := range ri {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Residual returns the max-norm of A·x − b, the standard solve check.
func Residual(a *matrix.Dense[float64], x, b []float64) float64 {
	ax := MatVec(a, x)
	worst := 0.0
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// MaxAbsDiff returns the largest element-wise |a-b|, used to compare
// factorizations that associate floating-point work differently.
func MaxAbsDiff(a, b *matrix.Dense[float64]) float64 {
	if a.N() != b.N() {
		panic("linalg: MaxAbsDiff size mismatch")
	}
	worst := 0.0
	for i := 0; i < a.N(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if d := math.Abs(ra[j] - rb[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}
