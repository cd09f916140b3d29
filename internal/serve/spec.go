package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"gep/internal/apsp"
	"gep/internal/core"
	"gep/internal/dp"
	"gep/internal/linalg"
	"gep/internal/matrix"
	"gep/internal/par"
)

// Spec is a submitted job description: the JSON body of POST /v1/jobs.
// Exactly one problem is described; inputs come either from Data/A/B
// (explicit, row-major) or are generated deterministically from Seed.
// The full schema, with per-op semantics and examples, is documented
// in docs/API.md.
type Spec struct {
	// Op selects the computation: "multiply" (c = a·b), "lu" (in-place
	// LU factors), "gauss" (in-place Gaussian elimination), "apsp"
	// (all-pairs shortest paths), "closure" (boolean transitive
	// closure), or "matrixchain" (optimal parenthesization).
	Op string `json:"op"`
	// N is the problem side length. The dense-matrix ops (multiply,
	// lu, gauss, apsp) require a power of two; closure accepts any
	// side; matrixchain ignores N and uses Dims.
	N int `json:"n,omitempty"`
	// Seed generates deterministic random inputs when no explicit data
	// is supplied (the same seed always produces the same inputs).
	Seed int64 `json:"seed,omitempty"`
	// Data is the explicit row-major n×n input for the single-matrix
	// ops. For "apsp" a zero off-diagonal cell means "no edge"; for
	// "closure" nonzero means an edge.
	Data []float64 `json:"data,omitempty"`
	// A and B are the explicit row-major operands of "multiply".
	A []float64 `json:"a,omitempty"`
	B []float64 `json:"b,omitempty"`
	// Engine selects the multiply algorithm: "" or "classical" for the
	// fused Θ(n³) recursion, "strassen" for the sub-cubic
	// Strassen-Winograd hybrid. Only "multiply" takes an engine;
	// unknown names and engines on other ops are rejected with a 400.
	Engine string `json:"engine,omitempty"`
	// Pivot selects the "lu" row-pivoting strategy: "" or "none" for
	// the paper's pivot-free I-GEP path (input must be factorable
	// without pivoting, e.g. diagonally dominant), "tournament" for
	// communication-avoiding CALU (linalg.FactorCA), which accepts any
	// nonsingular matrix and additionally returns the row permutation.
	// Only "lu" takes a pivot; singular inputs fail the job. The
	// strategies an op accepts are advertised as "pivots" on
	// GET /v1/ops.
	Pivot string `json:"pivot,omitempty"`
	// Dims is the matrix-chain dimension vector for "matrixchain"
	// (len(Dims) = #matrices + 1).
	Dims []int `json:"dims,omitempty"`
	// Workers is the job's par.Runtime worker budget; 0 takes the
	// server default, and values above the server's cap are rejected.
	Workers int `json:"workers,omitempty"`
	// DeadlineMS is the job deadline in milliseconds from the moment
	// it starts running; 0 takes the server default, values above the
	// server cap are rejected.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Storage, when present, runs the job out-of-core on a durable
	// striped store (checksummed tiles, write-ahead journal) instead
	// of in-RAM matrices; see StorageSpec. Only ops advertising
	// "ooc": true on GET /v1/ops accept it.
	Storage *StorageSpec `json:"storage,omitempty"`
}

// Result is a finished job's payload: the JSON body of
// GET /v1/jobs/{id}/result.
type Result struct {
	// ID, Op, N echo the job identity.
	ID string `json:"id"`
	Op string `json:"op"`
	N  int    `json:"n,omitempty"`
	// Data is the row-major output matrix for the matrix ops. Every
	// non-finite cell is null (JSON has no NaN or ±Inf), which for
	// "apsp" marks an unreachable pair; "closure" cells are 0 or 1.
	Data []*float64 `json:"data,omitempty"`
	// Cost and Order are the "matrixchain" outputs: the minimal scalar
	// multiplication count and an optimal parenthesization.
	Cost  *float64 `json:"cost,omitempty"`
	Order string   `json:"order,omitempty"`
	// Perm is the row permutation of a pivoted "lu" job (P·A = L·U):
	// factored row i came from input row Perm[i].
	Perm []int `json:"perm,omitempty"`
	// WallMS is the measured execution wall time in milliseconds.
	WallMS float64 `json:"wall_ms"`
}

// output is what a finished job retains: its Result without Data, and
// the output matrix as row-major cells (nil for "matrixchain"). Nothing
// writes it once the job is done, so readers need no lock.
type output struct {
	Result
	cells []float64
}

// ops maps an op name to its validation needs and executor. Engines
// run at execBase/execGrain (see below); the output bits do not depend
// on either.
var ops = map[string]struct {
	pow2    bool // n must be a power of two
	needsN  bool
	ooc     bool     // accepts a StorageSpec (durable out-of-core path)
	reads   []string // the input fields the op reads; the others must be empty
	engines []string // selectable algorithms; empty = no engine field
	pivots  []string // selectable pivot strategies; empty = no pivot field
	execute func(spec *Spec, rt *par.Runtime) (*output, error)
}{
	"multiply":    {pow2: true, needsN: true, ooc: true, reads: []string{"a", "b"}, engines: []string{"classical", "strassen"}, execute: execMultiply},
	"lu":          {pow2: true, needsN: true, ooc: true, reads: []string{"data"}, pivots: []string{"none", "tournament"}, execute: execLU},
	"gauss":       {pow2: true, needsN: true, ooc: true, reads: []string{"data"}, execute: execGauss},
	"apsp":        {pow2: true, needsN: true, ooc: true, reads: []string{"data"}, execute: execAPSP},
	"closure":     {needsN: true, reads: []string{"data"}, execute: execClosure},
	"matrixchain": {reads: []string{"dims"}, execute: execMatrixChain},
}

// validate checks a decoded Spec against the server's admission caps
// and returns a client-facing error describing the first problem.
func (s *Spec) validate(maxN int) error {
	op, ok := ops[s.Op]
	if !ok {
		return fmt.Errorf("unknown op %q (want multiply, lu, gauss, apsp, closure or matrixchain)", s.Op)
	}
	if op.needsN {
		if s.N < 1 {
			return fmt.Errorf("op %q requires n >= 1", s.Op)
		}
		if op.pow2 && !matrix.IsPow2(s.N) {
			return fmt.Errorf("op %q requires a power-of-two n, got %d", s.Op, s.N)
		}
	}
	inputs := []struct {
		name  string
		cells int
	}{{"data", len(s.Data)}, {"a", len(s.A)}, {"b", len(s.B)}, {"dims", len(s.Dims)}}
	for _, in := range inputs {
		if in.cells != 0 && !slices.Contains(op.reads, in.name) {
			return fmt.Errorf("op %q does not read %s (it reads %s)", s.Op, in.name, strings.Join(op.reads, " and "))
		}
	}
	if s.Op == "matrixchain" {
		if len(s.Dims) < 2 {
			return fmt.Errorf(`op "matrixchain" requires dims with at least 2 entries`)
		}
		if len(s.Dims) > maxN {
			return fmt.Errorf("dims length %d exceeds the server cap %d", len(s.Dims), maxN)
		}
		for _, d := range s.Dims {
			if d < 1 {
				return fmt.Errorf("dims entries must be >= 1")
			}
		}
	}
	for _, in := range inputs[:3] {
		if in.cells != 0 && in.cells != s.N*s.N {
			return fmt.Errorf("%s has %d cells, want n*n = %d", in.name, in.cells, s.N*s.N)
		}
	}
	if s.Op == "multiply" && (len(s.A) == 0) != (len(s.B) == 0) {
		return fmt.Errorf(`op "multiply" requires both a and b, or neither (seed-generated)`)
	}
	if s.Engine != "" {
		if len(op.engines) == 0 {
			return fmt.Errorf("op %q does not take an engine", s.Op)
		}
		if !slices.Contains(op.engines, s.Engine) {
			return fmt.Errorf("unknown engine %q for op %q (want %s)",
				s.Engine, s.Op, strings.Join(op.engines, " or "))
		}
	}
	if s.Pivot != "" {
		if len(op.pivots) == 0 {
			return fmt.Errorf("op %q does not take a pivot", s.Op)
		}
		if !slices.Contains(op.pivots, s.Pivot) {
			return fmt.Errorf("unknown pivot %q for op %q (want %s)",
				s.Pivot, s.Op, strings.Join(op.pivots, " or "))
		}
		if s.Pivot == "tournament" && s.Storage != nil {
			return fmt.Errorf(`pivot "tournament" is in-core only (omit storage)`)
		}
	}
	if st := s.Storage; st != nil {
		if !st.OutOfCore {
			return fmt.Errorf(`storage requires "out_of_core": true (omit storage for in-core execution)`)
		}
		if !op.ooc {
			return fmt.Errorf("op %q does not support out-of-core storage", s.Op)
		}
		if st.Stripes < 0 || st.Stripes > storageMaxStripes {
			return fmt.Errorf("storage.stripes must be in [0, %d], got %d", storageMaxStripes, st.Stripes)
		}
		if st.TileSide != 0 && (st.TileSide < 8 || !matrix.IsPow2(st.TileSide)) {
			return fmt.Errorf("storage.tile_side must be 0 or a power of two >= 8, got %d", st.TileSide)
		}
		if st.CacheBytes < 0 {
			return fmt.Errorf("storage.cache_bytes must be >= 0, got %d", st.CacheBytes)
		}
		if st.CheckpointEvery < 0 {
			return fmt.Errorf("storage.checkpoint_every must be >= 0, got %d", st.CheckpointEvery)
		}
	}
	return nil
}

// tooLarge reports whether the job exceeds the server's size cap,
// which is admission control (HTTP 413), not spec validity.
func (s *Spec) tooLarge(maxN int) bool { return s.N > maxN }

// execute runs the job's computation with every fork confined to rt.
// It is called on an executor goroutine; the caller handles deadline
// and cancellation by aborting rt.
func (s *Spec) execute(rt *par.Runtime) (*output, error) {
	return ops[s.Op].execute(s, rt)
}

// Engines run at a small base and grain so even modest jobs exercise
// their runtime's fork-join pool (the per-job counters are the
// isolation evidence, so forking must actually happen).
const (
	execBase  = 32
	execGrain = 32
)

// onJob returns the engine options of every in-core executor: forks
// above execGrain, all confined to the job's runtime rt.
func onJob[T any](rt *par.Runtime) []core.Option[T] {
	return []core.Option[T]{core.WithParallel[T](execGrain), core.WithRuntime[T](rt)}
}

// randMatrix generates the deterministic seed input: uniform [0, 1)
// entries, plus n on the diagonal when dominant (so LU and Gaussian
// elimination never hit a zero pivot).
func randMatrix(n int, seed int64, dominant bool) *matrix.Dense[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewSquare[float64](n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.Float64()
		}
		if dominant {
			row[i] += float64(n)
		}
	}
	return m
}

// cellsOf is the output of a job whose result is the matrix m (every
// executor's result matrix is freshly allocated, so contiguous).
func cellsOf(m *matrix.Dense[float64]) *output { return &output{cells: m.Data()} }

func execMultiply(s *Spec, rt *par.Runtime) (*output, error) {
	var a, b *matrix.Dense[float64]
	if len(s.A) > 0 {
		a, b = matrix.FromSlice(s.N, s.N, s.A), matrix.FromSlice(s.N, s.N, s.B)
	} else {
		a, b = randMatrix(s.N, s.Seed, false), randMatrix(s.N, s.Seed+1, false)
	}
	// Strassen recurses down to crossover 32 rather than the
	// wall-clock-tuned default, so even modest jobs run sub-cubically,
	// in core and out of core alike: the two agree bit for bit.
	// Crossover n is the purely classical tile loop, bit-identical to
	// the fused in-core engine.
	crossover := s.N
	if s.Engine == "strassen" {
		crossover = 32
	}
	if s.Storage != nil {
		c, err := runDurableMultiply(s.Storage, rt, a, b, crossover)
		if err != nil {
			return nil, err
		}
		return cellsOf(c), nil
	}
	c := matrix.NewSquare[float64](s.N)
	if s.Engine == "strassen" {
		// The job never forks: each classical leaf is one fused block
		// of side at most 32, and quadrants fork only above execGrain.
		linalg.MulStrassen(c, a, b, crossover, append(onJob[float64](rt), core.WithBaseSize[float64](execBase))...)
	} else {
		linalg.MulFused(c, a, b, execBase, onJob[float64](rt)...)
	}
	return cellsOf(c), nil
}

func inPlaceInput(s *Spec) *matrix.Dense[float64] {
	if len(s.Data) > 0 {
		return matrix.FromSlice(s.N, s.N, s.Data)
	}
	return randMatrix(s.N, s.Seed, true)
}

func execLU(s *Spec, rt *par.Runtime) (*output, error) {
	if s.Pivot == "tournament" {
		// Pivoting makes diagonal dominance unnecessary, so seeded
		// inputs are general random matrices — the workload the
		// pivot-free path cannot take.
		var m *matrix.Dense[float64]
		if len(s.Data) > 0 {
			m = matrix.FromSlice(s.N, s.N, s.Data)
		} else {
			m = randMatrix(s.N, s.Seed, false)
		}
		f, err := linalg.FactorCAParallelOn(rt, m, linalg.WithPanelWidth(execBase), linalg.WithCAGrain(execGrain))
		if err != nil {
			return nil, err
		}
		out := cellsOf(f.LU)
		out.Perm = f.Perm
		return out, nil
	}
	m := inPlaceInput(s)
	if s.Storage != nil {
		out, err := runDurableGEP(s.Storage, rt, m, core.LUFactor[float64]{}, core.LU{})
		if err != nil {
			return nil, err
		}
		return cellsOf(out), nil
	}
	linalg.LUIGEP(m, execBase, onJob[float64](rt)...)
	return cellsOf(m), nil
}

func execGauss(s *Spec, rt *par.Runtime) (*output, error) {
	m := inPlaceInput(s)
	if s.Storage != nil {
		out, err := runDurableGEP(s.Storage, rt, m, core.GaussElim[float64]{}, core.Gaussian{})
		if err != nil {
			return nil, err
		}
		return cellsOf(out), nil
	}
	linalg.GaussFused(m, execBase, onJob[float64](rt)...)
	return cellsOf(m), nil
}

func execAPSP(s *Spec, rt *par.Runtime) (*output, error) {
	var d *matrix.Dense[float64]
	if len(s.Data) > 0 {
		// Explicit weights: zero off-diagonal = no edge = +Inf.
		d = matrix.NewSquare[float64](s.N)
		for i := 0; i < s.N; i++ {
			row := d.Row(i)
			for j := range row {
				switch v := s.Data[i*s.N+j]; {
				case i == j:
					row[j] = 0
				case v == 0:
					row[j] = apsp.Inf
				default:
					row[j] = v
				}
			}
		}
	} else {
		g := apsp.Random(s.N, 0.25, 100, s.Seed)
		d = g.DistanceMatrix()
	}
	if s.Storage != nil {
		out, err := runDurableGEP(s.Storage, rt, d, core.MinPlus[float64]{}, core.Full{})
		if err != nil {
			return nil, err
		}
		return cellsOf(out), nil
	}
	apsp.FWFused(d, execBase, onJob[float64](rt)...)
	return cellsOf(d), nil
}

// execClosure runs the closure on a packed matrix.Bits (64 cells per
// word); seeded inputs draw one rng value per cell in row-major order.
func execClosure(s *Spec, rt *par.Runtime) (*output, error) {
	n := s.N
	edge := func(i, j int) bool { return s.Data[i*n+j] != 0 }
	if len(s.Data) == 0 {
		rng := rand.New(rand.NewSource(s.Seed))
		edge = func(int, int) bool { return rng.Float64() < 0.1 }
	}
	reach := matrix.NewBitsSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if edge(i, j) {
				reach.Set(i, j, true)
			}
		}
	}
	apsp.TransitiveClosurePacked(reach, onJob[bool](rt)...)
	cells := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if reach.At(i, j) {
				cells[i*n+j] = 1
			}
		}
	}
	return &output{cells: cells}, nil
}

func execMatrixChain(s *Spec, _ *par.Runtime) (*output, error) {
	cost, order := dp.MatrixChainOrder(s.Dims)
	return &output{Result: Result{Cost: &cost, Order: order}}, nil
}
