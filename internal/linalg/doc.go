// Package linalg contains the float64 linear algebra of the paper's
// performance experiments (§4.2): square matrix multiplication and
// Gaussian elimination / LU decomposition without pivoting, each in
// three forms —
//
//   - the naive GEP-style triple loop (the paper's "GEP" baseline),
//   - a cache-aware tiled kernel with register blocking (our stand-in
//     for the hand-tuned BLAS the paper compares against; see
//     DESIGN.md §4 for the substitution argument), and
//   - the cache-oblivious I-GEP recursion (fused.go): the generic
//     engines of internal/core with a fused update op, whose base
//     cases are closed-form kernels. It is the one I-GEP entry for
//     each computation, serial by default and forked by the
//     core.WithParallel / core.WithRuntime options it takes — the
//     facade, gep-server and gesolve all run it —
//     and it applies each cell's updates in ascending k, so its output
//     equals the iterative loop G with the op's function bit for bit
//     (DESIGN.md §10).
//
// Key entry points:
//
//   - MulNaive / MulJKI / MulTiled / MulTiledMorton / MulFused: C +=
//     A·B in the forms Figure 11 and the layout ablation compare, with
//     MulFlops as the GFLOPS denominator.
//   - LUGEP / LUGEPOpt / LUTiled / LUIGEP: in-place LU decomposition
//     without pivoting (Figure 10), with GEFlops as the denominator;
//     GaussFused runs the Gaussian set (no stored multipliers).
//   - Factor / SolveLU / Determinant / Invert: the consumers that make
//     the LU output useful and testable against known identities.
//   - GaussGF2Fused: unpivoted elimination over GF(2) on bit-packed
//     matrix.Bits storage, driven through the core engine's
//     word-parallel and four-Russians kernels (DESIGN.md §13).
//   - SolveGF2 / RankGF2 / MulVecGF2: pivoted GF(2) consumers —
//     partial pivoting is outside GEP's fixed update set, so these
//     run a direct word-parallel Gauss-Jordan RREF on the packed
//     rows.
package linalg
