// Package core implements the Gaussian Elimination Paradigm (GEP)
// framework of Chowdhury and Ramachandran (SODA'06, SPAA'07):
//
//   - RunGEP: the iterative triply nested loop G (Figure 1 of the
//     paper) — O(n³) work, O(n³/B) I/Os.
//   - RunIGEP: the recursive, in-place, cache-oblivious I-GEP F
//     (Figure 2) — O(n³) work, O(n³/(B√M)) I/Os; correct for important
//     instances such as Floyd-Warshall APSP, Gaussian elimination / LU
//     without pivoting, and matrix multiplication, but not for
//     arbitrary (f, Σ_G).
//   - RunCGEP / RunCGEPCompact: the fully general C-GEP H (Figure 3),
//     which matches G on every input by saving the intermediate cell
//     states G would have read (4n² extra cells for RunCGEP, 2n² for
//     the compact band variant). H is F's recursion with another base
//     case, and runs on the same engine.
//   - WithParallel: RunIGEP and RunCGEP then run the multithreaded
//     A/B/C/D schedule (Figures 4-6) with T∞ = O(n log² n) instead of
//     F's order, with the same output.
//   - RunDisjoint: the all-D schedule over four disjoint matrices, for
//     matrix multiplication with T∞ = O(n).
//   - Pi / Delta: the aligned-block functions of Definition 2.2 used by
//     Theorem 2.2 to characterize exactly which cell states I-GEP reads.
//
// Indexing convention: the paper is 1-based with "state 0" meaning the
// initial value; this package is 0-based throughout, so cell states are
// numbered -1 (initial) through n-1, Pi and Delta return -1 where the
// paper returns z-1 = 0, and Tau returns -1 where Definition 2.3
// returns 0.
//
// A GEP computation is specified by an update function f and an update
// set Σ_G. The update function receives the indices (i, j, k) as well
// as the four cell values; the paper's index-free f(x,u,v,w) is the
// special case that ignores them (indices are needed to express, e.g.,
// LU decomposition, where the j == k update divides by the pivot while
// j > k updates eliminate).
//
// All algorithms run over the matrix.Grid accessor interface, so the
// same code executes over in-core matrices, cache-simulator tracers
// (internal/cachesim), and out-of-core stores (internal/ooc).
package core
