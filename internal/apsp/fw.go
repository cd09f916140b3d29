package apsp

import "gep/internal/matrix"

// Floyd-Warshall in the paper's compared forms: the iterative GEP
// baselines here, the cache-oblivious I-GEP engine in fused.go. All
// operate in place on a distance matrix as produced by
// Graph.DistanceMatrix. The update set is Full and f is min-plus:
// d[i][j] = min(d[i][j], d[i][k]+d[k][j]).

// FWFlops returns the operation count (one add + one compare per
// update) used as the figure-of-merit denominator.
func FWFlops(n int) float64 { return 2 * float64(n) * float64(n) * float64(n) }

// FWGEP is the classic iterative Floyd-Warshall — the GEP baseline of
// Figure 8, with rows hoisted into slices (the "reasonably optimized"
// version the paper compares against).
func FWGEP(d *matrix.Dense[float64]) {
	n := d.N()
	for k := 0; k < n; k++ {
		dk := d.Row(k)
		for i := 0; i < n; i++ {
			di := d.Row(i)
			dik := di[k]
			if dik == Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if t := dik + dk[j]; t < di[j] {
					di[j] = t
				}
			}
		}
	}
}

// FWGEPPure is the unoptimized triple loop without the row/constant
// hoisting or the Inf skip — the fully naive baseline.
func FWGEPPure(d *matrix.Dense[float64]) {
	n := d.N()
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if t := d.At(i, k) + d.At(k, j); t < d.At(i, j) {
					d.Set(i, j, t)
				}
			}
		}
	}
}

// Solve computes all-pairs shortest path distances for g with
// cache-oblivious Floyd-Warshall (FWFused). base <= 0 selects a
// reasonable default kernel size.
func Solve(g *Graph, base int) *matrix.Dense[float64] {
	if base <= 0 {
		base = 32
	}
	d := g.DistanceMatrix()
	FWFused(d, base)
	return d
}
