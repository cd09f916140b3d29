// Package gep is a cache-oblivious implementation of the Gaussian
// Elimination Paradigm (GEP) of Chowdhury and Ramachandran — the
// triply nested loop
//
//	for k, i, j:  if ⟨i,j,k⟩ ∈ Σ:  c[i,j] ← f(c[i,j], c[i,k], c[k,j], c[k,k])
//
// which covers Gaussian elimination and LU decomposition without
// pivoting, Floyd-Warshall all-pairs shortest paths, matrix
// multiplication, and many other dynamic programs.
//
// Three execution engines are provided:
//
//   - Iterative — the classic loop nest G: O(n³) time, O(n³/B) I/Os.
//   - CacheOblivious — the I-GEP recursion F: O(n³) time, only
//     O(n³/(B√M)) I/Os at every level of the memory hierarchy, without
//     knowing M or B. Exact for the standard instances above, but not
//     for arbitrary (f, Σ).
//   - General — the C-GEP recursion H: the same bounds as I-GEP and
//     guaranteed to match Iterative for every f and Σ, at the cost of
//     extra space (4n², or 2n² with GeneralCompact).
//
// With WithParallel, CacheOblivious and General run the multithreaded
// recursion of the paper (span O(n log² n)); Multiply, FloydWarshall
// and Factorize expose the applications through the same engines with
// their fused ops, so every entry point — serial or parallel, facade,
// gep-server or CLI — gives the same bits for the same problem: per
// cell, updates apply in ascending k, each rounded as in the op's
// UpdateFunc, exactly as the Iterative loop applies them. Parallel
// execution runs on a work-stealing fork-join scheduler: by default
// one process-wide instance sized by GOMAXPROCS, or — for callers
// hosting concurrent computations that must not contend for workers —
// per-computation instances created with NewRuntime and selected with
// WithRuntime (cmd/gep-server serves every job on its own instance
// this way).
//
// Matrices are addressed through the Grid interface, so the same
// engines run over in-core matrices, cache simulators and out-of-core
// stores. The recursive engines require power-of-two side lengths; use
// Pad to extend other sizes with a problem-neutral element.
package gep

import (
	"gep/internal/apsp"
	"gep/internal/core"
	"gep/internal/dp"
	"gep/internal/linalg"
	"gep/internal/matrix"
	"gep/internal/par"
)

// UpdateFunc is the GEP update f. It receives the indices ⟨i,j,k⟩ and
// the values x = c[i,j], u = c[i,k], v = c[k,j], w = c[k,k], and
// returns the new c[i,j]. It must be a pure function of its arguments.
// A typed UpdateFunc value is itself an Op, so any custom update can be
// passed straight to the engines.
type UpdateFunc[T any] = core.UpdateFunc[T]

// Op is an update operation the engines execute. Every UpdateFunc is
// an Op; the predefined ops below additionally carry fused block
// kernels that the flat-storage fast path dispatches to, eliminating
// the per-element indirect call (outputs are bit-identical either
// way). See MinPlusOp, MulAddOp, GaussElimOp, LUFactorOp, ClosureOp.
type Op[T any] = core.Op[T]

// Real enumerates the element types the predefined fused ops support.
type Real = interface{ core.Real }

// UpdateSet is the set Σ of updates to apply; see Full, GaussianSet,
// LUSet, Predicate and Explicit.
type UpdateSet = core.UpdateSet

// Grid is the n×n element accessor the engines operate on.
type Grid[T any] = matrix.Grid[T]

// Matrix is the standard in-core row-major implementation of Grid.
type Matrix[T any] = matrix.Dense[T]

// Option configures the recursive engines; see WithBaseSize,
// WithPrune, WithParallel and WithTableWidth.
type Option[T any] = core.Option[T]

// BitMatrix is a dense boolean matrix packed 64 cells per machine
// word. It implements Grid[bool], so every engine runs on it
// unchanged; the boolean-semiring and GF(2) ops (ClosureOp,
// GF2ElimOp) additionally dispatch word-parallel kernels — 64 cells
// per instruction — and a four-Russians table base case over it. See
// TransitiveClosurePacked, SolveGF2 and RankGF2 for packed
// applications.
type BitMatrix = matrix.Bits

// Standard update sets.
var (
	// Full contains every triple: Floyd-Warshall, matrix multiply.
	Full core.Full
	// GaussianSet is {k < i, k < j}: Gaussian elimination.
	GaussianSet core.Gaussian
	// LUSet is {k < i, k <= j}: LU decomposition with multipliers.
	LUSet core.LU
)

// Predicate builds an UpdateSet from a membership function.
func Predicate(pred func(i, j, k int) bool) UpdateSet {
	return core.Predicate{Pred: pred}
}

// NewMatrix returns a zero-initialized n×n matrix.
func NewMatrix[T any](n int) *Matrix[T] { return matrix.NewSquare[T](n) }

// NewBitMatrix returns a zero-initialized n×n packed boolean matrix.
func NewBitMatrix(n int) *BitMatrix { return matrix.NewBitsSquare(n) }

// PackMatrix converts a boolean matrix to packed form.
func PackMatrix(m *Matrix[bool]) *BitMatrix { return matrix.PackBool(m) }

// UnpackMatrix converts a packed matrix back to element-wise form.
func UnpackMatrix(b *BitMatrix) *Matrix[bool] { return matrix.UnpackBool(b) }

// FromRows builds a matrix from rows, copying the data.
func FromRows[T any](rows [][]T) *Matrix[T] { return matrix.FromRows(rows) }

// Pad returns a copy of m extended to the next power-of-two side; new
// off-diagonal cells hold fill and new diagonal cells hold diag.
func Pad[T any](m *Matrix[T], fill, diag T) *Matrix[T] {
	return matrix.PadPow2Diag(m, fill, diag)
}

// Crop returns the leading n×n corner of m as a fresh matrix.
func Crop[T any](m *Matrix[T], n int) *Matrix[T] { return matrix.Crop(m, n) }

// WithBaseSize sets the side at which the recursive engines switch to
// an iterative kernel (the paper's empirically tuned base-size).
func WithBaseSize[T any](b int) Option[T] { return core.WithBaseSize[T](b) }

// WithPrune toggles the quadrant pruning test (default on).
func WithPrune[T any](on bool) Option[T] { return core.WithPrune[T](on) }

// WithParallel makes CacheOblivious and General run the paper's
// multithreaded A/B/C/D schedule (Figure 6) instead of the serial
// recursion, forking its independent recursive calls down to the
// given grain; the output is the same either way. GeneralCompact
// ignores it. Over a BitMatrix the grain is raised to 64, one word,
// and the matrix must be word-aligned, so concurrent calls never write
// the same word.
func WithParallel[T any](grain int) Option[T] { return core.WithParallel[T](grain) }

// Runtime is one instance of the work-stealing fork-join scheduler the
// parallel engines run on. The engines default to a process-wide
// shared instance sized by GOMAXPROCS; NewRuntime creates additional
// isolated instances, each with its own worker budget and telemetry
// scope, so concurrent computations in one process (the jobs of
// cmd/gep-server, tenants of an embedding application) cannot occupy
// each other's workers. Pass an instance to the engines with
// WithRuntime, and release its workers with Close when done.
type Runtime = par.Runtime

// NewRuntime returns an isolated scheduler instance with the given
// worker budget (workers <= 0 sizes it from GOMAXPROCS and tracks it).
// Close it when done; see Runtime.
func NewRuntime(workers int) *Runtime { return par.NewRuntime(workers) }

// WithRuntime confines the parallel recursion's forks to rt (nil =
// the shared default runtime). Combine with WithParallel.
func WithRuntime[T any](rt *Runtime) Option[T] { return core.WithRuntime[T](rt) }

// WithTableWidth sets the four-Russians table width for engine runs
// over a BitMatrix (0 disables the table kernel; default 8). It is
// ignored for element-wise storage.
func WithTableWidth[T any](tw int) Option[T] { return core.WithTableWidth[T](tw) }

// MinPlusOp returns the fused min-plus update
// (Floyd-Warshall: x ← min(x, u+v)).
func MinPlusOp[T Real]() Op[T] { return core.MinPlus[T]{} }

// MulAddOp returns the fused multiply-accumulate update
// (matrix multiplication: x ← x + u·v).
func MulAddOp[T Real]() Op[T] { return core.MulAdd[T]{} }

// GaussElimOp returns the fused Gaussian-elimination update
// (x ← x − (u/w)·v), applied over GaussianSet.
func GaussElimOp[T Real]() Op[T] { return core.GaussElim[T]{} }

// LUFactorOp returns the fused LU update (multiplier on j == k,
// elimination otherwise), applied over LUSet.
func LUFactorOp[T Real]() Op[T] { return core.LUFactor[T]{} }

// ClosureOp returns the fused boolean-semiring update
// (transitive closure: x ← x ∨ (u ∧ v)). On a BitMatrix it runs
// word-parallel with a four-Russians base case.
func ClosureOp() Op[bool] { return core.Closure{} }

// GF2ElimOp returns the GF(2) Gaussian-elimination update
// (x ← x ⊕ (u ∧ v)), applied over GaussianSet. On a BitMatrix it runs
// word-parallel with a four-Russians base case. Like GaussElimOp it
// assumes elimination is possible without pivoting; for general GF(2)
// systems use SolveGF2 / RankGF2, which pivot.
func GF2ElimOp() Op[bool] { return core.GF2Elim{} }

// Iterative runs the classic GEP loop nest (the paper's G).
func Iterative[T any](c Grid[T], op Op[T], set UpdateSet) {
	core.RunGEP(c, op, set)
}

// CacheOblivious runs I-GEP (the paper's F): same updates as
// Iterative, O(n³/(B√M)) I/Os, in place. Use it for the standard
// instances (Floyd-Warshall, Gaussian elimination, LU, matrix
// multiplication and friends); for arbitrary f and Σ use General.
// The side must be a power of two. WithParallel runs the
// multithreaded A/B/C/D recursion (Figure 6) with the same output, and
// WithRuntime picks the scheduler it forks on.
func CacheOblivious[T any](c Grid[T], op Op[T], set UpdateSet, opts ...Option[T]) {
	core.RunIGEP(c, op, set, opts...)
}

// General runs C-GEP (the paper's H): cache-oblivious and guaranteed
// to produce Iterative's output for every f and Σ, using 4n² extra
// cells. The side must be a power of two. WithParallel runs it over
// the multithreaded Figure-6 schedule (§3: the parallel time bound of
// I-GEP applies to C-GEP too) with the same output.
func General[T any](c Grid[T], op Op[T], set UpdateSet, opts ...Option[T]) {
	core.RunCGEP(c, op, set, opts...)
}

// GeneralCompact is General with the reduced-space (2n²) scheme; it
// trades re-initialization passes for memory and runs serially.
func GeneralCompact[T any](c Grid[T], op Op[T], set UpdateSet, opts ...Option[T]) {
	core.RunCGEPCompact(c, op, set, opts...)
}

// Multiply computes c += a·b with the cache-oblivious recursion over
// disjoint matrices (span O(n) when parallel). Sides must be equal
// powers of two.
func Multiply(c, a, b *Matrix[float64]) {
	linalg.MulFused(c, a, b, 64)
}

// MultiplyParallel is Multiply on goroutines; the result is
// bit-identical to Multiply's.
func MultiplyParallel(c, a, b *Matrix[float64]) {
	linalg.MulFused(c, a, b, 64, core.WithParallel[float64](128))
}

// MultiplyStrassen computes c = a·b (overwriting c, which must not
// alias a or b) with the sub-cubic Strassen-Winograd recursion over
// the fused classical kernels: O(n^lg7) work, deterministic output,
// any side length. Elementwise error vs the classical product is
// within linalg.StrassenErrorBound. WithParallel forks the classical
// leaves' quadrants above its grain and WithRuntime picks the
// scheduler; the result is bit-identical either way. See DESIGN.md
// §15.
func MultiplyStrassen(c, a, b *Matrix[float64], opts ...Option[float64]) {
	linalg.MulStrassen(c, a, b, linalg.DefaultCrossover, opts...)
}

// FloydWarshall computes all-pairs shortest path distances in place:
// d holds edge weights (+Inf for no edge, 0 diagonal) and is replaced
// by shortest-path distances. Any side length is accepted.
func FloydWarshall(d *Matrix[float64]) { apsp.FWFused(d, 64) }

// FloydWarshallParallel is FloydWarshall on goroutines (multithreaded
// I-GEP with the Figure-6 schedule, on the work-stealing runtime);
// the result is bit-identical to FloydWarshall's. Any side length is
// accepted.
func FloydWarshallParallel(d *Matrix[float64]) {
	apsp.FWFused(d, 64, core.WithParallel[float64](128))
}

// Factorize performs in-place LU decomposition without pivoting
// (L strictly below the diagonal with implicit unit diagonal, U on and
// above). The matrix must be factorizable without pivoting. Any side
// length is accepted: other sides are factored padded with an
// identity block, which leaves the leading factors unchanged.
func Factorize(a *Matrix[float64]) { linalg.LUIGEP(a, 64) }

// FactorizeParallel is Factorize on goroutines; the factors are
// bit-identical to Factorize's. Any side length is accepted.
func FactorizeParallel(a *Matrix[float64]) {
	linalg.LUIGEP(a, 64, core.WithParallel[float64](128))
}

// Solve solves A·x = b by cache-oblivious LU factorization followed by
// forward and backward substitution; a is overwritten with its
// factors. Any side length is accepted.
func Solve(a *Matrix[float64], b []float64) []float64 {
	linalg.LUIGEP(a, 64)
	return linalg.SolveLU(a, b)
}

// ErrSingular reports a (numerically) singular matrix from FactorCA
// or the other pivoted solvers; match with errors.Is.
var ErrSingular = linalg.ErrSingular

// PivotedLU is a P·A = L·U factorization with partial or tournament
// pivoting: Solve and Det consume it, Perm maps factored row index to
// original row index.
type PivotedLU = linalg.LUP

// FactorCA computes P·A = L·U with communication-avoiding tournament
// pivoting (CALU): pivot rows are chosen per block column by a
// reduction tree of small partial-pivoted factorizations, and the
// O(n³) trailing updates run through the cache-oblivious fused kernel
// tier. a is not modified; any side length is accepted. Singular
// input returns an error wrapping ErrSingular. See DESIGN.md §17.
func FactorCA(a *Matrix[float64]) (*PivotedLU, error) {
	return linalg.FactorCA(a)
}

// FactorCAParallel is FactorCA with the tournament and the trailing
// updates forked on the work-stealing runtime.
func FactorCAParallel(a *Matrix[float64]) (*PivotedLU, error) {
	return linalg.FactorCAParallel(a)
}

// Invert returns A⁻¹ via cache-oblivious LU; a is not modified. The
// matrix must be invertible without pivoting.
func Invert(a *Matrix[float64]) *Matrix[float64] { return linalg.Invert(a) }

// Determinant returns det(A) via cache-oblivious LU; a is not
// modified.
func Determinant(a *Matrix[float64]) float64 { return linalg.Determinant(a) }

// TransitiveClosure computes graph reachability in place (Warshall's
// algorithm — the boolean-semiring GEP instance): reach initially
// holds edge presence; afterwards reach[i][j] reports whether j is
// reachable from i. Any side length is accepted.
func TransitiveClosure(reach *Matrix[bool]) { apsp.TransitiveClosure(reach) }

// TransitiveClosureParallel is TransitiveClosure on goroutines
// (multithreaded I-GEP on the work-stealing runtime); bit-identical to
// the serial path at every worker count. Any side length is accepted.
func TransitiveClosureParallel(reach *Matrix[bool]) {
	apsp.TransitiveClosure(reach, core.WithParallel[bool](64))
}

// TransitiveClosurePacked is TransitiveClosure over packed storage:
// word-parallel row unions plus the four-Russians table base case,
// typically tens of times faster than the element-wise path and
// bit-for-bit equal to it. Any side length is accepted.
func TransitiveClosurePacked(reach *BitMatrix) { apsp.TransitiveClosurePacked(reach) }

// TransitiveClosurePackedParallel is TransitiveClosurePacked on
// goroutines. reach must be word-aligned (true for any matrix from
// NewBitMatrix or PackMatrix; only mid-word sub-views are not).
func TransitiveClosurePackedParallel(reach *BitMatrix) {
	apsp.TransitiveClosurePacked(reach, core.WithParallel[bool](64))
}

// SolveGF2 solves A·x = b over GF(2) (XOR linear systems) with
// partial pivoting, word-parallel; a is not modified. ok is false
// exactly when the system is inconsistent (linalg.SolveGF2 reports the
// same condition as an error wrapping ErrSingular); free variables of
// underdetermined systems are set to false.
func SolveGF2(a *BitMatrix, b []bool) (x []bool, ok bool) {
	x, err := linalg.SolveGF2(a, b)
	return x, err == nil
}

// RankGF2 returns the rank of a over GF(2); a is not modified.
func RankGF2(a *BitMatrix) int { return linalg.RankGF2(a) }

// MatrixChain returns the minimal scalar-multiplication count and an
// optimal parenthesization for multiplying matrices with the given
// dimension vector (len(dims) = #matrices + 1) — the "simple-DP"
// companion application, solved cache-obliviously.
func MatrixChain(dims []int) (cost float64, order string) {
	return dp.MatrixChainOrder(dims)
}

// GapCosts configures Align; see internal/dp for the recurrence.
type GapCosts = dp.GapCosts

// Align computes the alignment-cost table of two sequences of lengths
// n and m under arbitrary gap costs, cache-obliviously; the total cost
// is the bottom-right cell.
func Align(n, m int, costs GapCosts) *Matrix[float64] {
	return dp.AlignCacheOblivious(n, m, costs, 64)
}

// LegalityReport is the outcome of CheckLegality.
type LegalityReport = core.LegalityReport

// CheckLegality differentially tests whether plain I-GEP is a legal
// transformation for the given (f, Σ) on random inputs (§2.3 of the
// paper): a found counterexample is definitive evidence that General
// must be used instead of CacheOblivious. gen may be nil for default
// random inputs; supply one to restrict to the loop nest's real input
// domain.
func CheckLegality(f UpdateFunc[int64], set UpdateSet, maxN, trials int, seed int64, gen core.InputGen) LegalityReport {
	return core.CheckIGEPLegality(f, set, maxN, trials, seed, gen)
}
