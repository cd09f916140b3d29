package dp

import (
	"fmt"

	"gep/internal/matrix"
)

// Sequence alignment with general gap costs (the "gap problem"): align
// x[1..n] against y[1..m] where a gap may cover any run of characters
// at a cost given by an arbitrary function of its endpoints. The
// recurrence over the (n+1)×(m+1) table D is
//
//	D[0][0] = 0
//	D[i][j] = min( D[i-1][j-1] + Sub(i,j),             (i,j > 0)
//	               min_{0<=q<j} D[i][q] + GapY(q,j),    (j > 0)
//	               min_{0<=p<i} D[p][j] + GapX(p,i) )   (i > 0)
//
// — O(n²m + nm²) work. The cache-oblivious solver uses the same
// quadrant-plus-apply structure as the parenthesis problem.

// GapCosts supplies the scoring functions. Indices are 1-based into
// the sequences (as in the recurrence above).
type GapCosts struct {
	// Sub is the cost of aligning x_i with y_j.
	Sub func(i, j int) float64
	// GapX is the cost of deleting x_{p+1..i} (a vertical move).
	GapX func(p, i int) float64
	// GapY is the cost of inserting y_{q+1..j} (a horizontal move).
	GapY func(q, j int) float64
}

// AlignIterative fills the alignment table with the textbook loops;
// the alignment cost is the bottom-right cell.
func AlignIterative(n, m int, g GapCosts) *matrix.Dense[float64] {
	checkGapArgs(n, m)
	d := newAlignTable(n, m)
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			if i == 0 && j == 0 {
				continue
			}
			best := Inf
			if i > 0 && j > 0 {
				best = d.At(i-1, j-1) + g.Sub(i, j)
			}
			for q := 0; q < j; q++ {
				if cand := d.At(i, q) + g.GapY(q, j); cand < best {
					best = cand
				}
			}
			for p := 0; p < i; p++ {
				if cand := d.At(p, j) + g.GapX(p, i); cand < best {
					best = cand
				}
			}
			d.Set(i, j, best)
		}
	}
	return d
}

// AlignCacheOblivious computes the same table with the cache-oblivious
// recursion: solve the top-left quadrant, fold its row and column
// contributions into the adjacent quadrants with recursive min-plus
// apply steps, and recurse — O((n²m + nm²)/(B√M)) misses. block is the
// iterative base-case side. Results equal AlignIterative exactly.
func AlignCacheOblivious(n, m int, g GapCosts, block int) *matrix.Dense[float64] {
	checkGapArgs(n, m)
	if block < 1 {
		block = 1
	}
	d := newAlignTable(n, m)
	s := &gapSolver{d: d, g: g, block: block}
	s.solve(0, n, 0, m)
	return d
}

func newAlignTable(n, m int) *matrix.Dense[float64] {
	d := matrix.New[float64](n+1, m+1)
	d.Fill(Inf)
	d.Set(0, 0, 0)
	return d
}

type gapSolver struct {
	d     *matrix.Dense[float64]
	g     GapCosts
	block int
}

// solve computes cells [i1,i2] × [j1,j2] (inclusive), assuming every
// contribution from cells above/left of the block — the diagonal
// neighbours of its first row/column, row-gap contributions with
// q < j1, and column-gap contributions with p < i1 — has already been
// folded into the block (the whole-table call has none).
//
// Blocks hold the running minimum in place: a cell starts at +Inf (or
// the partially folded value) and is finished when its own block is
// solved.
func (s *gapSolver) solve(i1, i2, j1, j2 int) {
	if i2-i1+1 <= s.block && j2-j1+1 <= s.block {
		s.kernel(i1, i2, j1, j2)
		return
	}
	if i2-i1+1 > s.block && j2-j1+1 > s.block {
		// Quadrant split: after the top-left quadrant, the top-right
		// and bottom-left quadrants touch disjoint cells and read only
		// completed regions — they are independent (the gap-problem
		// analogue of Figure 6's B/C calls).
		im, jm := (i1+i2)/2, (j1+j2)/2
		s.solve(i1, im, j1, jm) // TL
		s.applyRow(i1, im, j1, jm, jm+1, j2)
		s.applyDiagCol(jm+1, i1, im)
		s.applyCol(im+1, i2, i1, im, j1, jm)
		s.applyDiagRow(im+1, j1, jm)
		s.solve(i1, im, jm+1, j2) // TR
		s.solve(im+1, i2, j1, jm) // BL
		s.applyCol(im+1, i2, i1, im, jm+1, j2)
		s.applyRow(im+1, i2, j1, jm, jm+1, j2)
		s.applyDiagRow(im+1, jm+1, j2)
		s.applyDiagCol(jm+1, im+1, i2)
		s.solve(im+1, i2, jm+1, j2) // BR
		return
	}
	// One thin dimension: split the longer side.
	if i2-i1 >= j2-j1 {
		im := (i1 + i2) / 2
		s.solve(i1, im, j1, j2) // top band
		// Fold the top band into the bottom band: column gaps with
		// p ∈ [i1, im], plus the diagonal terms crossing the split.
		s.applyCol(im+1, i2, i1, im, j1, j2)
		s.applyDiagRow(im+1, j1, j2)
		s.solve(im+1, i2, j1, j2)
	} else {
		jm := (j1 + j2) / 2
		s.solve(i1, i2, j1, jm) // left band
		s.applyRow(i1, i2, j1, jm, jm+1, j2)
		s.applyDiagCol(jm+1, i1, i2)
		s.solve(i1, i2, jm+1, j2)
	}
}

// applyRow folds row-gap contributions from completed columns
// q ∈ [q1,q2] into target cells [i1,i2] × [j1,j2]:
// D[i][j] min= D[i][q] + GapY(q,j). Recursive for cache-obliviousness.
func (s *gapSolver) applyRow(i1, i2, q1, q2, j1, j2 int) {
	di, dq, dj := i2-i1+1, q2-q1+1, j2-j1+1
	if di <= s.block && dq <= s.block && dj <= s.block {
		for i := i1; i <= i2; i++ {
			row := s.d.Row(i)
			for q := q1; q <= q2; q++ {
				diq := row[q]
				if diq == Inf {
					continue
				}
				for j := j1; j <= j2; j++ {
					if cand := diq + s.g.GapY(q, j); cand < row[j] {
						row[j] = cand
					}
				}
			}
		}
		return
	}
	switch {
	case di >= dq && di >= dj:
		im := (i1 + i2) / 2
		s.applyRow(i1, im, q1, q2, j1, j2)
		s.applyRow(im+1, i2, q1, q2, j1, j2)
	case dq >= dj:
		qm := (q1 + q2) / 2
		s.applyRow(i1, i2, q1, qm, j1, j2)
		s.applyRow(i1, i2, qm+1, q2, j1, j2)
	default:
		jm := (j1 + j2) / 2
		s.applyRow(i1, i2, q1, q2, j1, jm)
		s.applyRow(i1, i2, q1, q2, jm+1, j2)
	}
}

// applyCol folds column-gap contributions from completed rows
// p ∈ [p1,p2] into target cells [i1,i2] × [j1,j2]:
// D[i][j] min= D[p][j] + GapX(p,i).
func (s *gapSolver) applyCol(i1, i2, p1, p2, j1, j2 int) {
	di, dp, dj := i2-i1+1, p2-p1+1, j2-j1+1
	if di <= s.block && dp <= s.block && dj <= s.block {
		for p := p1; p <= p2; p++ {
			rowP := s.d.Row(p)
			for i := i1; i <= i2; i++ {
				cost := s.g.GapX(p, i)
				row := s.d.Row(i)
				for j := j1; j <= j2; j++ {
					if dpj := rowP[j]; dpj != Inf {
						if cand := dpj + cost; cand < row[j] {
							row[j] = cand
						}
					}
				}
			}
		}
		return
	}
	switch {
	case di >= dp && di >= dj:
		im := (i1 + i2) / 2
		s.applyCol(i1, im, p1, p2, j1, j2)
		s.applyCol(im+1, i2, p1, p2, j1, j2)
	case dp >= dj:
		pm := (p1 + p2) / 2
		s.applyCol(i1, i2, p1, pm, j1, j2)
		s.applyCol(i1, i2, pm+1, p2, j1, j2)
	default:
		jm := (j1 + j2) / 2
		s.applyCol(i1, i2, p1, p2, j1, jm)
		s.applyCol(i1, i2, p1, p2, jm+1, j2)
	}
}

// applyDiagRow folds the diagonal (substitution) contribution into the
// first row i of a lower band from the completed row i-1 above it.
func (s *gapSolver) applyDiagRow(i, j1, j2 int) {
	if i == 0 {
		return
	}
	prev := s.d.Row(i - 1)
	row := s.d.Row(i)
	for j := max(j1, 1); j <= j2; j++ {
		if prev[j-1] == Inf {
			continue
		}
		if cand := prev[j-1] + s.g.Sub(i, j); cand < row[j] {
			row[j] = cand
		}
	}
}

// applyDiagCol folds the diagonal contribution into the first column j
// of a right band from the completed column j-1.
func (s *gapSolver) applyDiagCol(j, i1, i2 int) {
	if j == 0 {
		return
	}
	for i := max(i1, 1); i <= i2; i++ {
		prev := s.d.At(i-1, j-1)
		if prev == Inf {
			continue
		}
		if cand := prev + s.g.Sub(i, j); cand < s.d.At(i, j) {
			s.d.Set(i, j, cand)
		}
	}
}

// kernel is the iterative base case: cells row-major, folding the
// diagonal and in-block gap contributions (out-of-block ones are
// already in place by the solve invariant).
func (s *gapSolver) kernel(i1, i2, j1, j2 int) {
	for i := i1; i <= i2; i++ {
		row := s.d.Row(i)
		for j := j1; j <= j2; j++ {
			if i == 0 && j == 0 {
				continue
			}
			best := row[j]
			if i > i1 && j > j1 { // in-block diagonal (cross-block is pre-folded)
				if prev := s.d.At(i-1, j-1); prev != Inf {
					if cand := prev + s.g.Sub(i, j); cand < best {
						best = cand
					}
				}
			}
			for q := j1; q < j; q++ { // in-block row gaps
				if row[q] == Inf {
					continue
				}
				if cand := row[q] + s.g.GapY(q, j); cand < best {
					best = cand
				}
			}
			for p := i1; p < i; p++ { // in-block column gaps
				if dpj := s.d.At(p, j); dpj != Inf {
					if cand := dpj + s.g.GapX(p, i); cand < best {
						best = cand
					}
				}
			}
			row[j] = best
		}
	}
}

// checkGapArgs validates sizes for the public helpers.
func checkGapArgs(n, m int) {
	if n < 0 || m < 0 {
		panic(fmt.Sprintf("dp: negative sequence length %d/%d", n, m))
	}
}
