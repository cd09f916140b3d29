package core

import (
	"gep/internal/matrix"
	"gep/internal/par"
)

// UpdateFunc computes the new value of c[i,j] from the current values
// x = c[i,j], u = c[i,k], v = c[k,j] and w = c[k,k]. It corresponds to
// the function f of Figure 1 of the paper; the indices are supplied for
// convenience (the paper's f ignores them) and must not be used to
// read other matrix cells, or the cache-oblivious bounds and the C-GEP
// correctness guarantee no longer apply.
type UpdateFunc[T any] func(i, j, k int, x, u, v, w T) T

// UpdateSet is the set Σ_G of update triples ⟨i,j,k⟩ a GEP computation
// applies. All indices are 0-based.
type UpdateSet interface {
	// Contains reports whether ⟨i,j,k⟩ ∈ Σ_G.
	Contains(i, j, k int) bool

	// Intersects reports whether Σ_G contains any triple in the box
	// [i1,i2] × [j1,j2] × [k1,k2] (inclusive bounds). It implements
	// the T_{X,[k1,k2]} ∩ Σ_G = ∅ pruning test of line 1 of I-GEP and
	// C-GEP. Returning true conservatively is always allowed; it
	// affects only performance, never correctness.
	Intersects(i1, i2, j1, j2, k1, k2 int) bool
}

// TauSet is an UpdateSet that can answer the τ query of Definition 2.3
// in O(1); the standard sets in this package all implement it.
type TauSet interface {
	UpdateSet
	// Tau returns the largest l' <= l with ⟨i,j,l'⟩ ∈ Σ_G, or -1 if no
	// such l' exists (the paper's τ_ij(l), 0-based, with -1 standing
	// for the paper's 0 = "initial state").
	Tau(i, j, l int) int
}

// Ranger is an UpdateSet whose membership, for fixed i and k, is a
// contiguous column interval: Contains(i, j, k) holds exactly for
// lo <= j < hi. The flat-slice kernels use it to hoist the per-element
// Contains test out of the inner loop — the j loop runs straight over
// [lo, hi) intersected with the block — so implement it whenever the
// set's column sections are intervals (all the paper's standard
// instances are: Full, Gaussian, LU). Sets that do not implement
// Ranger fall back to the per-element Contains path; like Intersects,
// Ranger affects only performance, never correctness — but an
// implementation must be exact, not conservative.
type Ranger interface {
	UpdateSet
	// JRange returns the half-open interval [lo, hi) of columns j with
	// ⟨i,j,k⟩ ∈ Σ_G. An empty set is any lo >= hi; an interval
	// unbounded above may use math.MaxInt.
	JRange(i, k int) (lo, hi int)
}

// Tau evaluates τ_ij(l) for any UpdateSet, using the set's own Tau
// method when it implements TauSet and a downward scan otherwise.
func Tau(s UpdateSet, i, j, l int) int {
	if ts, ok := s.(TauSet); ok {
		return ts.Tau(i, j, l)
	}
	for k := l; k >= 0; k-- {
		if s.Contains(i, j, k) {
			return k
		}
	}
	return -1
}

// config carries the tunable knobs of the recursive algorithms.
type config[T any] struct {
	baseSize   int
	prune      bool
	parallel   bool
	grain      int
	newAux     func(rows, cols int) matrix.Rect[T]
	rt         *par.Runtime // nil = the default runtime
	baseHook   func(i0, j0, k0, s int) bool
	tableWidth int // four-Russians group width in bits (0 disables the table path)
}

// bindFast binds the in-place engines' base-case dispatcher over g
// (fastpath.go) with the run's hook and table width, and resolves the
// automatic base size from the storage it found.
func (c *config[T]) bindFast(g matrix.Grid[T], set UpdateSet, op Op[T]) *dispatcher[T] {
	d := inPlaceDispatcher(g, op, set, c.tableWidth)
	d.hook = c.baseHook
	c.resolveBaseSize(d.flat, d.bitsOp != nil)
	return &d
}

// autoBaseSize is the tuned default base-case side when flat storage
// binds (the paper's §4.2 base-size finding: 64-128 depending on the
// machine; 64 here).
const autoBaseSize = 64

// resolveBaseSize replaces the baseSize == 0 "auto" sentinel with the
// tuned kernel size when flat storage bound and with 1 (the pure
// recursion of Figures 2 and 3) otherwise, so wrapper grids keep their
// exact per-update semantics. Packed grids with a word kernel bound
// use the larger packed default (see autoBaseSizeBits).
func (c *config[T]) resolveBaseSize(flat, packed bool) {
	if c.baseSize != 0 {
		return
	}
	switch {
	case packed:
		c.baseSize = autoBaseSizeBits
	case flat:
		c.baseSize = autoBaseSize
	default:
		c.baseSize = 1
	}
}

func defaultConfig[T any]() config[T] {
	return config[T]{
		baseSize:   0, // auto: resolveBaseSize picks 512 (packed), 64 (flat) or 1
		prune:      true,
		parallel:   false,
		grain:      64,
		tableWidth: defaultTableWidth,
		newAux: func(rows, cols int) matrix.Rect[T] {
			return matrix.New[T](rows, cols)
		},
	}
}

// Option configures the recursive GEP algorithms.
type Option[T any] func(*config[T])

// WithBaseSize sets the subproblem side at which the recursion switches
// to an iterative kernel (the paper's empirically tuned "base-size",
// §4.2: 128 on Xeon, 64 on Opteron). The default is automatic: 64 when
// the engine binds the flat fast path (dense storage) and 1 — the pure
// recursion of Figures 2 and 3 — for wrapper grids, whose cache-miss
// and trace semantics depend on the exact recursive update order.
// Passing an explicit value overrides the automatic choice either way.
//
// For I-GEP the kernel executes the block in G order, which is
// equivalent for every (f, Σ_G) instance on which I-GEP is correct.
// For C-GEP the kernel performs the H base-case body (saved-state reads
// and saves) in G order.
func WithBaseSize[T any](b int) Option[T] {
	if b < 1 {
		panic("core: base size must be >= 1")
	}
	return func(c *config[T]) { c.baseSize = b }
}

// WithTableWidth sets the four-Russians group width in bits for the
// packed base case: source rows are processed tw at a time through a
// 2^tw-entry row-combination table (see internal/core/bits.go). 0
// disables the table path entirely, leaving the plain word-parallel
// kernel; the default is 8. The option is meaningful only for runs
// over a *matrix.Bits grid with a BitsKerneler op and is ignored
// otherwise. Whatever the width, the crossover test m4riWins still
// gates the table path per block, so small base cases never pay for
// table construction.
func WithTableWidth[T any](tw int) Option[T] {
	if tw < 0 || tw > 16 {
		panic("core: table width must be in [0, 16]")
	}
	return func(c *config[T]) { c.tableWidth = tw }
}

// WithPrune enables or disables the line-1 quadrant pruning test
// (default enabled). Disabling it exists for the pruning ablation
// benchmark.
func WithPrune[T any](on bool) Option[T] {
	return func(c *config[T]) { c.prune = on }
}

// WithParallel makes RunIGEP and RunCGEP run the multithreaded A/B/C/D
// schedule of Figure 6 instead of F's order, and forks the parallel
// steps of that schedule and of RunDisjoint's. grain is the subproblem
// side at or below which calls run serially; it bounds spawn overhead,
// and a grain >= n runs Figure 6's order with no fork. Over a
// *matrix.Bits the grain is raised to 64 (see buildConfig).
// RunCGEPCompact ignores it and runs F's order.
func WithParallel[T any](grain int) Option[T] {
	if grain < 1 {
		panic("core: parallel grain must be >= 1")
	}
	return func(c *config[T]) {
		c.parallel = true
		c.grain = grain
	}
}

// WithAuxFactory sets the allocator used for C-GEP's auxiliary matrices
// u0, u1, v0, v1 (n×n each for RunCGEP; n×(n/2) and (n/2)×n bands for
// RunCGEPCompact). The default allocates in-core dense matrices; the
// out-of-core driver passes a file-backed factory so that the aux state
// obeys the same memory budget as the main matrix.
func WithAuxFactory[T any](f func(rows, cols int) matrix.Rect[T]) Option[T] {
	return func(c *config[T]) { c.newAux = f }
}

// WithBaseCase installs an external base-case executor: hook is called
// for every base-case block (i0, j0, k0, s) before any built-in kernel
// dispatch, and returning true consumes the block — the engine then
// performs no accesses of its own for it. Returning false falls
// through to the normal fused → flat → generic hierarchy.
//
// The hook exists for storage layers whose base cases want custom
// staging: internal/ooc pins the block's tiles into RAM and runs
// TileKernel over the resident buffers. Pair it with WithBaseSize
// matched to the storage tile side so blocks align with tiles.
func WithBaseCase[T any](hook func(i0, j0, k0, s int) bool) Option[T] {
	return func(c *config[T]) { c.baseHook = hook }
}

// WithRuntime routes the parallel recursion's forks to rt instead of
// the process-wide default work-stealing runtime. Pass the per-job
// runtime of an isolated tenant (see par.NewRuntime and
// internal/serve) so concurrent computations cannot occupy each
// other's worker budgets; nil keeps the default.
func WithRuntime[T any](rt *par.Runtime) Option[T] {
	return func(c *config[T]) { c.rt = rt }
}

// buildConfig applies opts to the defaults for a run that writes g.
// Concurrent siblings split g's columns at multiples of the grain, so
// over a *matrix.Bits, which packs 64 cells per word, a forking run
// needs g to start on a word boundary and raises the grain to 64: then
// no two tasks write the same word.
func buildConfig[T any](g matrix.Grid[T], opts []Option[T]) config[T] {
	c := defaultConfig[T]()
	for _, o := range opts {
		o(&c)
	}
	if b, ok := any(g).(*matrix.Bits); ok && c.parallel {
		if !b.Aligned() {
			panic("core: parallel run over a word-unaligned matrix.Bits view (see Bits.Aligned)")
		}
		c.grain = max(c.grain, 64)
	}
	return c
}

// FlatSchedule resolves opts for a recursion over flat storage that
// runs outside this package's engines (linalg's Strassen): base is
// WithBaseSize's side or the automatic flat one, and under
// WithParallel rt is the runtime to fork on above grain (WithRuntime's
// or the default one). Without WithParallel rt is nil: run serially.
func FlatSchedule[T any](opts ...Option[T]) (base, grain int, rt *par.Runtime) {
	c := buildConfig[T](nil, opts)
	c.resolveBaseSize(true, false)
	if c.parallel {
		rt = par.Or(c.rt)
	}
	return c.baseSize, c.grain, rt
}
