package linalg

import (
	"fmt"
	"math"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/metrics"
	"gep/internal/par"
)

// Communication-avoiding LU with tournament pivoting (CALU), in the
// style of Kwasniewski et al.'s near-I/O-optimal LU and the
// Grigori/Demmel/Xiang TSLU panel factorization. Pivoting's
// data-dependent row exchanges fall outside GEP's fixed update set, so
// the paper's engines are pivot-free; FactorCA confines the
// data-dependent part to narrow column panels — each panel's pivot
// rows are chosen by a reduction tree of small partial-pivoted
// factorizations (the "tournament") — and hands the O(n³) bulk of the
// work, the Schur-complement trailing update, back to the
// cache-oblivious fused kernel tier (core.DisjointBlock with the
// MulSub op), so the dominant cost keeps the paper's I/O behavior and
// its counters. See DESIGN.md §17.
//
// The result is the same LUP (P·A = L·U) that Factor produces, so
// Solve/Det and every consumer work unchanged; the pivot sequence
// differs from exact partial pivoting but carries the CALU stability
// guarantee (growth bounded by 2^(b·depth) in theory, GEPP-like in
// practice).

// Tournament-pivoting telemetry; see docs/OPERATIONS.md for the
// counter inventory.
var (
	pivotPanels    = metrics.New("linalg.pivot.panels")
	pivotMatches   = metrics.New("linalg.pivot.tournament.matches")
	pivotSwaps     = metrics.New("linalg.pivot.swaps")
	pivotTrailing  = metrics.New("linalg.pivot.trailing.tiles")
	pivotFallbacks = metrics.New("linalg.pivot.trailing.edge")
)

// caCfg carries the tunables of FactorCA.
type caCfg struct {
	panel int // block-column width b (pivot rows chosen per panel)
	grain int // fork cutoff (rows/cols) for the parallel recursions
}

// CAOption configures FactorCA; see WithPanelWidth and WithCAGrain.
type CAOption func(*caCfg)

// WithPanelWidth sets the block-column width b: pivot rows are chosen
// b at a time and the trailing update runs on b-deep Schur tiles
// through the fused row kernel (multiples of 4 use its k-unrolled
// body throughout); the default is 32.
func WithPanelWidth(b int) CAOption {
	return func(c *caCfg) {
		if b > 0 {
			c.panel = b
		}
	}
}

// WithCAGrain sets the side below which the parallel recursions stop
// forking (default 128); it is ignored by the serial FactorCA.
func WithCAGrain(g int) CAOption {
	return func(c *caCfg) {
		if g > 0 {
			c.grain = g
		}
	}
}

// FactorCA computes P·A = L·U with tournament pivoting; a is not
// modified. It returns ErrSingular (wrapped, with the column) when a
// pivot is negligible against its column's magnitude. Any side length
// is accepted.
func FactorCA(a *matrix.Dense[float64], opts ...CAOption) (*LUP, error) {
	return factorCAOn(nil, a, false, opts)
}

// FactorCAParallel is FactorCA with the tournament, the row-panel
// update and the trailing Schur update forked on the default
// work-stealing runtime.
func FactorCAParallel(a *matrix.Dense[float64], opts ...CAOption) (*LUP, error) {
	return FactorCAParallelOn(nil, a, opts...)
}

// FactorCAParallelOn is FactorCAParallel with all forks confined to rt
// (nil = the default runtime). When rt is aborted mid-factorization it
// returns an error at the first panel whose tournament lost matches.
func FactorCAParallelOn(rt *par.Runtime, a *matrix.Dense[float64], opts ...CAOption) (*LUP, error) {
	return factorCAOn(par.Or(rt), a, true, opts)
}

func factorCAOn(rt *par.Runtime, a *matrix.Dense[float64], parallel bool, opts []CAOption) (*LUP, error) {
	cfg := caCfg{panel: 32, grain: 128}
	for _, o := range opts {
		o(&cfg)
	}
	n := a.N()
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	r := &caRun{lu: lu, perm: perm, n: n, cfg: cfg}
	if parallel {
		r.rt = rt
	}
	if err := r.factor(); err != nil {
		return nil, err
	}
	return &LUP{LU: lu, Perm: perm, Swaps: r.swaps}, nil
}

// caRun is the per-factorization state of the CALU driver.
type caRun struct {
	lu    *matrix.Dense[float64]
	perm  []int
	n     int
	cfg   caCfg
	rt    *par.Runtime // nil = serial
	swaps int
}

// factor runs the panel loop, forking (when r.rt is set) from one
// root of the runtime.
func (r *caRun) factor() error {
	n, b := r.n, r.cfg.panel
	cx := par.Or(r.rt).Root()
	for kk := 0; kk < n; kk += b {
		w := b
		if kk+w > n {
			w = n - kk
		}
		pivotPanels.Inc()
		// 1. Tournament: choose the panel's w pivot rows by the
		// reduction tree over the current (already-updated) panel.
		sel := r.tourney(cx, kk, w, kk, n)
		if len(sel) < w {
			// An aborted runtime skipped matches of the tournament,
			// whose winners never came back: stop before indexing them.
			return fmt.Errorf("linalg: tournament for panel %d returned %d of %d pivot rows (runtime aborted)", kk, len(sel), w)
		}
		// 2. Apply the row exchanges across the full matrix width, so
		// L of earlier panels and the pending right part stay
		// consistent with one global permutation.
		for t := 0; t < w; t++ {
			dst, src := kk+t, sel[t]
			if dst == src {
				continue
			}
			rd, rs := r.lu.Row(dst), r.lu.Row(src)
			for j := 0; j < n; j++ {
				rd[j], rs[j] = rs[j], rd[j]
			}
			r.perm[dst], r.perm[src] = r.perm[src], r.perm[dst]
			r.swaps++
			pivotSwaps.Inc()
			// A later winner displaced to src keeps being reachable.
			for u := t + 1; u < w; u++ {
				if sel[u] == dst {
					sel[u] = src
				}
			}
		}
		// 3. Panel factorization, now pivot-free: the tournament
		// winners sit on the diagonal.
		if err := r.panelLU(kk, w); err != nil {
			return err
		}
		// 4. Row-panel update: U12 ← L11⁻¹·A12 (unit lower triangle).
		r.rowPanel(cx, kk, w)
		// 5. Trailing Schur update A22 −= L21·U12 through the fused
		// cache-oblivious kernel tier.
		r.trailing(cx, kk+w, n, kk+w, n, kk, w)
	}
	return nil
}

// tourney selects w pivot rows for the panel columns [kk, kk+w) from
// rows [lo, hi): blocks of 2w rows run a local partial-pivoted
// factorization and their winners merge pairwise up the tree — the
// CALU reduction. Independent subtrees fork from cx.
func (r *caRun) tourney(cx par.Ctx, kk, w, lo, hi int) []int {
	if hi-lo <= 2*w {
		cand := make([]int, hi-lo)
		for i := range cand {
			cand[i] = lo + i
		}
		return pickWinners(r.lu, kk, w, cand)
	}
	// Split at a multiple of 2w so every leaf but the last is a full
	// block; the recursion depth is the tournament-tree depth.
	blocks := (hi - lo + 2*w - 1) / (2 * w)
	mid := lo + (blocks/2)*2*w
	var left, right []int
	if r.rt != nil && hi-lo > 8*w {
		cx.Do(
			func(cx par.Ctx) { left = r.tourney(cx, kk, w, lo, mid) },
			func(cx par.Ctx) { right = r.tourney(cx, kk, w, mid, hi) },
		)
	} else {
		left = r.tourney(cx, kk, w, lo, mid)
		right = r.tourney(cx, kk, w, mid, hi)
	}
	pivotMatches.Inc()
	merged := make([]int, 0, len(left)+len(right))
	merged = append(merged, left...)
	merged = append(merged, right...)
	return pickWinners(r.lu, kk, w, merged)
}

// pickWinners plays one tournament match: it copies the candidate
// rows' panel columns into a scratch block, runs a partial-pivoted
// elimination on the copy, and returns the first min(w, len(cand))
// rows of the resulting pivot order — the rows a partial-pivoted
// factorization of just these candidates would have promoted. The
// matrix itself is never modified here.
func pickWinners(lu *matrix.Dense[float64], kk, w int, cand []int) []int {
	m := len(cand)
	if m <= w {
		out := make([]int, m)
		copy(out, cand)
		return out
	}
	s := matrix.New[float64](m, w)
	for i, row := range cand {
		copy(s.Row(i), lu.Row(row)[kk:kk+w])
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	for k := 0; k < w; k++ {
		p, best := k, abs(s.At(k, k))
		for i := k + 1; i < m; i++ {
			if v := abs(s.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best == 0 || math.IsNaN(best) {
			// Singular (or poisoned) column in this match: keep the
			// current order and move on; the panel factorization's
			// threshold check reports the singularity with the column.
			continue
		}
		if p != k {
			rp, rk := s.Row(p), s.Row(k)
			for j := 0; j < w; j++ {
				rp[j], rk[j] = rk[j], rp[j]
			}
			order[p], order[k] = order[k], order[p]
		}
		ck := s.Row(k)
		inv := 1 / ck[k]
		for i := k + 1; i < m; i++ {
			ci := s.Row(i)
			mult := ci[k] * inv
			for j := k + 1; j < w; j++ {
				ci[j] -= mult * ck[j]
			}
		}
	}
	winners := make([]int, w)
	for t := 0; t < w; t++ {
		winners[t] = cand[order[t]]
	}
	return winners
}

// panelLU factors the column panel [kk, n) × [kk, kk+w) in place with
// the tournament's pivot rows already on the diagonal. Pivots are
// checked against the threshold-aware singularity test (ErrSingular,
// scaled by the column's magnitude), which also catches non-finite
// pivots.
func (r *caRun) panelLU(kk, w int) error {
	n := r.lu.N()
	for k := kk; k < kk+w; k++ {
		ck := r.lu.Row(k)
		piv := ck[k]
		colMax := abs(piv)
		for i := k + 1; i < n; i++ {
			if v := abs(r.lu.At(i, k)); v > colMax {
				colMax = v
			}
		}
		if !(abs(piv) > pivotTol(n, colMax)) || math.IsInf(piv, 0) {
			return singularAt(k)
		}
		inv := 1 / piv
		for i := k + 1; i < n; i++ {
			ci := r.lu.Row(i)
			m := ci[k] * inv
			ci[k] = m
			for j := k + 1; j < kk+w; j++ {
				ci[j] -= m * ck[j]
			}
		}
	}
	return nil
}

// rowPanel applies L11's eliminations to the row panel A12 (forward
// substitution with the unit lower triangle), forking disjoint column
// ranges from cx.
func (r *caRun) rowPanel(cx par.Ctx, kk, w int) {
	n := r.lu.N()
	var apply func(cx par.Ctx, j0, j1 int)
	apply = func(cx par.Ctx, j0, j1 int) {
		if r.rt != nil && j1-j0 > r.cfg.grain {
			h := j0 + (j1-j0)/2
			cx.Do(
				func(cx par.Ctx) { apply(cx, j0, h) },
				func(cx par.Ctx) { apply(cx, h, j1) },
			)
			return
		}
		for k := kk; k < kk+w; k++ {
			ck := r.lu.Row(k)
			for i := k + 1; i < kk+w; i++ {
				ci := r.lu.Row(i)
				m := ci[k]
				for j := j0; j < j1; j++ {
					ci[j] -= m * ck[j]
				}
			}
		}
	}
	apply(cx, kk+w, n)
}

// trailing runs the Schur-complement update
// C[i0:i1, j0:j1] −= L[i0:i1, k0:k0+w] · U[k0:k0+w, j0:j1]
// as a cache-oblivious recursion over disjoint output tiles. Full w×w
// leaves dispatch core.DisjointBlock with the fused MulSub op — the
// same kernel tier (and counters) as the pivot-free engines — and the
// ragged edges of non-multiple sides fall back to the register-blocked
// rectangular loop. Both halves of a split fork from cx.
func (r *caRun) trailing(cx par.Ctx, i0, i1, j0, j1, k0, w int) {
	m, q := i1-i0, j1-j0
	if m <= 0 || q <= 0 {
		return
	}
	if m <= w && q <= w {
		if m == w && q == w {
			if data, stride, ok := matrix.Flat[float64](r.lu); ok {
				pivotTrailing.Inc()
				core.DisjointBlock[float64](core.MulSub[float64]{}, core.Full{},
					data[i0*stride+j0:], stride,
					data[i0*stride+k0:], stride,
					data[k0*stride+j0:], stride,
					data[k0*stride+k0:], stride, w)
				return
			}
		}
		pivotFallbacks.Inc()
		negMulBlock(r.lu, i0, i1, k0, k0+w, j0, j1)
		return
	}
	// Halve the longer axis at a multiple of w so interior leaves stay
	// exactly w×w; both halves write disjoint C tiles, so they fork.
	fork := func(size int, f1, f2 func(par.Ctx)) {
		if r.rt != nil && size > r.cfg.grain {
			cx.Do(f1, f2)
		} else {
			f1(cx)
			f2(cx)
		}
	}
	if m >= q {
		half := (m / 2 / w) * w
		if half == 0 {
			half = w
		}
		h := i0 + half
		fork(m,
			func(cx par.Ctx) { r.trailing(cx, i0, h, j0, j1, k0, w) },
			func(cx par.Ctx) { r.trailing(cx, h, i1, j0, j1, k0, w) })
	} else {
		half := (q / 2 / w) * w
		if half == 0 {
			half = w
		}
		h := j0 + half
		fork(q,
			func(cx par.Ctx) { r.trailing(cx, i0, i1, j0, h, k0, w) },
			func(cx par.Ctx) { r.trailing(cx, i0, i1, h, j1, k0, w) })
	}
}

// machEps is the float64 unit roundoff (2⁻⁵²).
const machEps = 0x1p-52

// pivotTol is the threshold below which a pivot counts as singular:
// scaled by the column's max magnitude, so a denormal pivot in a
// well-scaled column is rejected instead of producing Inf factors,
// while a uniformly tiny (but well-conditioned) matrix still factors.
func pivotTol(n int, colMax float64) float64 {
	return float64(n) * machEps * colMax
}

// singularAt wraps ErrSingular with the offending column.
func singularAt(k int) error {
	return fmt.Errorf("linalg: singular at column %d: %w", k, ErrSingular)
}
