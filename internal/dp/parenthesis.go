package dp

import (
	"fmt"
	"math"

	"gep/internal/matrix"
)

// Inf is the "not computable" sentinel in DP tables.
var Inf = math.Inf(1)

// CostFunc scores splitting interval (i, j) at point k (i < k < j):
// the parenthesis recurrence is
//
//	c[i][j] = min_{i<k<j} ( c[i][k] + c[k][j] + w(i,k,j) ).
//
// Matrix-chain multiplication uses w(i,k,j) = dims[i]·dims[k]·dims[j].
type CostFunc func(i, k, j int) float64

// ParenthesisIterative solves the parenthesis problem over points
// 0..n by the classic increasing-span loop. base[i] seeds c[i][i+1]
// (length n). The returned (n+1)×(n+1) table has the answer for every
// interval in its upper triangle; cells below the diagonal are unused
// (+Inf).
func ParenthesisIterative(n int, w CostFunc, base []float64) *matrix.Dense[float64] {
	c := newParenTable(n, base)
	for span := 2; span <= n; span++ {
		for i := 0; i+span <= n; i++ {
			j := i + span
			best := Inf
			for k := i + 1; k < j; k++ {
				if cand := c.At(i, k) + c.At(k, j) + w(i, k, j); cand < best {
					best = cand
				}
			}
			c.Set(i, j, best)
		}
	}
	return c
}

// ParenthesisCacheOblivious solves the same recurrence with the
// cache-oblivious recursion: solve the two half triangles, then fill
// the connecting rectangle with a quadrant recursion whose
// cross-quadrant contributions are min-plus rectangular products —
// O(n³/(B√M)) cache misses, no machine parameters. block is the
// iterative base-case side (>= 1); any n >= 1 is accepted.
func ParenthesisCacheOblivious(n int, w CostFunc, base []float64, block int) *matrix.Dense[float64] {
	if block < 1 {
		block = 1
	}
	c := newParenTable(n, base)
	p := &parenSolver{c: c, w: w, block: block}
	p.solve(0, n)
	return c
}

func newParenTable(n int, base []float64) *matrix.Dense[float64] {
	if len(base) != n {
		panic(fmt.Sprintf("dp: base has %d entries, want n=%d", len(base), n))
	}
	c := matrix.NewSquare[float64](n + 1)
	c.Fill(Inf)
	for i := 0; i < n; i++ {
		c.Set(i, i+1, base[i])
	}
	for i := 0; i <= n; i++ {
		c.Set(i, i, 0)
	}
	return c
}

type parenSolver struct {
	c     *matrix.Dense[float64]
	w     CostFunc
	block int
	// dims, when non-nil, declares w to be the matrix-chain weight
	// dims[i]·dims[k]·dims[j]; the hot loops then inline the product
	// instead of making an indirect w call per candidate split. The
	// inlined expression multiplies in the same order as the closure in
	// MatrixChainCost, so results are bit-identical.
	dims []float64
}

// solve computes every c[i][j] with l <= i < j <= r, assuming nothing
// precomputed beyond the unit intervals.
func (p *parenSolver) solve(l, r int) {
	if r-l <= 1 {
		return
	}
	if r-l <= p.block {
		// Iterative base case on the small triangle.
		for span := 2; span <= r-l; span++ {
			for i := l; i+span <= r; i++ {
				j := i + span
				best := p.c.At(i, j)
				if wd := p.dims; wd != nil {
					wj := wd[j]
					for k := i + 1; k < j; k++ {
						if cand := p.c.At(i, k) + p.c.At(k, j) + wd[i]*wd[k]*wj; cand < best {
							best = cand
						}
					}
				} else {
					for k := i + 1; k < j; k++ {
						if cand := p.c.At(i, k) + p.c.At(k, j) + p.w(i, k, j); cand < best {
							best = cand
						}
					}
				}
				p.c.Set(i, j, best)
			}
		}
		return
	}
	m := (l + r) / 2
	// The two half triangles are independent.
	p.solve(l, m)
	p.solve(m, r)
	// Seed the rectangle X = [l,m) × (m,r] with the k = m split, the
	// only contribution exterior to the whole rectangle.
	if wd := p.dims; wd != nil {
		for i := l; i < m; i++ {
			wim := wd[i] * wd[m]
			for j := m + 1; j <= r; j++ {
				cand := p.c.At(i, m) + p.c.At(m, j) + wim*wd[j]
				if cand < p.c.At(i, j) {
					p.c.Set(i, j, cand)
				}
			}
		}
	} else {
		for i := l; i < m; i++ {
			for j := m + 1; j <= r; j++ {
				cand := p.c.At(i, m) + p.c.At(m, j) + p.w(i, m, j)
				if cand < p.c.At(i, j) {
					p.c.Set(i, j, cand)
				}
			}
		}
	}
	p.combine(l, m-1, m+1, r)
}

// combine finishes the rectangle rows [i1,i2] × cols [j1,j2]
// (inclusive), assuming every contribution with split point k outside
// the rectangle's own row span (i1,i2] and column span [j1,j2) has
// already been folded in. Interior contributions:
//
//	c[i][j] = min(c[i][j], c[i][k] + c[k][j] + w)  for k ∈ (i, i2]   (rows below)
//	c[i][j] = min(c[i][j], c[i][k] + c[k][j] + w)  for k ∈ [j1, j)   (columns left)
func (p *parenSolver) combine(i1, i2, j1, j2 int) {
	if i1 > i2 || j1 > j2 {
		return
	}
	if i2-i1+1 <= p.block && j2-j1+1 <= p.block {
		p.combineKernel(i1, i2, j1, j2)
		return
	}
	// Split the longer side; quadrant order: bottom-left first, then
	// top-left and bottom-right (independent), then top-right, with
	// min-plus product "apply" steps carrying contributions across.
	if i2-i1 >= j2-j1 {
		rm := (i1 + i2) / 2 // rows [i1,rm] top, [rm+1,i2] bottom
		p.combine(rm+1, i2, j1, j2)
		p.apply(i1, rm, rm+1, i2, j1, j2)
		p.combine(i1, rm, j1, j2)
	} else {
		cm := (j1 + j2) / 2 // cols [j1,cm] left, [cm+1,j2] right
		p.combine(i1, i2, j1, cm)
		p.apply(i1, i2, j1, cm, cm+1, j2)
		p.combine(i1, i2, cm+1, j2)
	}
}

// apply folds completed split points k ∈ [k1,k2] into the target
// cells [i1,i2] × [j1,j2]:
//
//	c[i][j] min= c[i][k] + c[k][j] + w(i,k,j).
//
// Both cross-band steps of combine are this one min-plus rectangular
// product (with k a row band below the target or a column band to its
// left — the formula is identical). The sources are complete and
// disjoint from the target, so the recursion splits freely; it keeps
// the whole algorithm within the O(n³/(B√M)) miss bound rather than
// degrading the apply work to O(n³/B).
func (p *parenSolver) apply(i1, i2, k1, k2, j1, j2 int) {
	di, dk, dj := i2-i1+1, k2-k1+1, j2-j1+1
	if di <= p.block && dk <= p.block && dj <= p.block {
		if wd := p.dims; wd != nil {
			// Closed-form weight: hoist wd[i]·wd[k] out of the j loop.
			// wik*wd[j] associates exactly like the closure's
			// wd[i]*wd[k]*wd[j], so candidates are bit-identical.
			for k := k1; k <= k2; k++ {
				ck := p.c.Row(k)
				wk := wd[k]
				for i := i1; i <= i2; i++ {
					ci := p.c.Row(i)
					cik := ci[k]
					if cik == Inf {
						continue
					}
					wik := wd[i] * wk
					for j := j1; j <= j2; j++ {
						if cand := cik + ck[j] + wik*wd[j]; cand < ci[j] {
							ci[j] = cand
						}
					}
				}
			}
			return
		}
		for k := k1; k <= k2; k++ {
			ck := p.c.Row(k)
			for i := i1; i <= i2; i++ {
				ci := p.c.Row(i)
				cik := ci[k]
				if cik == Inf {
					continue
				}
				for j := j1; j <= j2; j++ {
					if cand := cik + ck[j] + p.w(i, k, j); cand < ci[j] {
						ci[j] = cand
					}
				}
			}
		}
		return
	}
	switch {
	case di >= dk && di >= dj:
		im := (i1 + i2) / 2
		// Disjoint target rows.
		p.apply(i1, im, k1, k2, j1, j2)
		p.apply(im+1, i2, k1, k2, j1, j2)
	case dk >= dj:
		// Both halves fold into the same cells.
		km := (k1 + k2) / 2
		p.apply(i1, i2, k1, km, j1, j2)
		p.apply(i1, i2, km+1, k2, j1, j2)
	default:
		jm := (j1 + j2) / 2
		p.apply(i1, i2, k1, k2, j1, jm)
		p.apply(i1, i2, k1, k2, jm+1, j2)
	}
}

// combineKernel is the iterative base case of combine: rows bottom-up,
// columns left-to-right, folding the interior contributions.
func (p *parenSolver) combineKernel(i1, i2, j1, j2 int) {
	if wd := p.dims; wd != nil {
		for i := i2; i >= i1; i-- {
			ci := p.c.Row(i)
			wi := wd[i]
			for j := j1; j <= j2; j++ {
				best := ci[j]
				wj := wd[j]
				for k := i + 1; k <= i2; k++ {
					if cand := ci[k] + p.c.At(k, j) + wi*wd[k]*wj; cand < best {
						best = cand
					}
				}
				for k := j1; k < j; k++ {
					if cand := ci[k] + p.c.At(k, j) + wi*wd[k]*wj; cand < best {
						best = cand
					}
				}
				ci[j] = best
			}
		}
		return
	}
	for i := i2; i >= i1; i-- {
		ci := p.c.Row(i)
		for j := j1; j <= j2; j++ {
			best := ci[j]
			for k := i + 1; k <= i2; k++ {
				if cand := ci[k] + p.c.At(k, j) + p.w(i, k, j); cand < best {
					best = cand
				}
			}
			for k := j1; k < j; k++ {
				if cand := ci[k] + p.c.At(k, j) + p.w(i, k, j); cand < best {
					best = cand
				}
			}
			ci[j] = best
		}
	}
}

// chainWeights converts a dimension vector to float64 once so the
// solver's specialized loops can index it directly.
func chainWeights(dims []int) []float64 {
	wd := make([]float64, len(dims))
	for i, d := range dims {
		wd[i] = float64(d)
	}
	return wd
}

// parenthesisChain solves the matrix-chain instance with the
// closed-form-weight solver: no indirect w call in the hot loops.
func parenthesisChain(dims []int, block int) *matrix.Dense[float64] {
	n := len(dims) - 1
	c := newParenTable(n, make([]float64, n))
	p := &parenSolver{c: c, block: block, dims: chainWeights(dims)}
	p.solve(0, n)
	return c
}

// MatrixChainCost returns the minimal scalar-multiplication count for
// multiplying matrices with the given dimensions (len(dims) = #matrices
// + 1), computed cache-obliviously.
func MatrixChainCost(dims []int) float64 {
	n := len(dims) - 1
	if n < 1 {
		return 0
	}
	return parenthesisChain(dims, 32).At(0, n)
}

// MatrixChainOrder additionally reconstructs an optimal
// parenthesization (as a string like "((A0 A1) A2)") from the cost
// table.
func MatrixChainOrder(dims []int) (float64, string) {
	n := len(dims) - 1
	if n < 1 {
		return 0, ""
	}
	w := func(i, k, j int) float64 {
		return float64(dims[i]) * float64(dims[k]) * float64(dims[j])
	}
	c := parenthesisChain(dims, 32)
	var render func(i, j int) string
	render = func(i, j int) string {
		if j == i+1 {
			return fmt.Sprintf("A%d", i)
		}
		for k := i + 1; k < j; k++ {
			if c.At(i, k)+c.At(k, j)+w(i, k, j) == c.At(i, j) {
				return "(" + render(i, k) + " " + render(k, j) + ")"
			}
		}
		panic("dp: inconsistent cost table")
	}
	return c.At(0, n), render(0, n)
}
