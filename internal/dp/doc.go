// Package dp contains the two dynamic-programming applications the
// paper inherits from its companion work ([5] Cherng-Ladner, [6]
// Chowdhury-Ramachandran SODA'06) and cites as further uses of the
// cache-oblivious machinery:
//
//   - the parenthesis problem ("simple-DP"): optimal binary splitting
//     of an interval, covering matrix-chain multiplication, optimal
//     polygon triangulation and similar O(n³) interval DPs; and
//   - sequence alignment with a general (not necessarily affine) gap
//     cost function, an O(n²m + nm²) DP.
//
// Each comes in an iterative textbook form and a cache-oblivious
// divide-and-conquer form built from the same ingredients as I-GEP:
// quadrant recursion plus min-plus rectangular "matrix product" apply
// steps for the cross-quadrant contributions. With integer costs the
// two forms produce bitwise-identical tables.
//
// Both forms are serial.
//
// Key entry points:
//
//   - ParenthesisIterative / ParenthesisCacheOblivious over a
//     CostFunc, with MatrixChainOrder as the classic instantiation and
//     Traceback to recover the optimal split tree.
//   - AlignIterative / AlignCacheOblivious over GapCosts; AffineCosts
//     builds the affine special case and GotohAffine is the
//     independent O(nm) oracle the tests compare against.
package dp
