package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"gep/internal/cachesim"
	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/matrix"
	"gep/internal/ooc"
	"gep/internal/par"
)

func init() {
	Register(Experiment{
		Name:  "bounds2",
		Title: "Sub-cubic check: classical vs Strassen misses against their respective I/O lower bounds, in-core and out-of-core",
		Run:   runBounds2,
	})
}

// runBounds2 is the I/O-optimality story for the Strassen-GEP hybrid:
// for each engine (classical fused recursion vs Strassen-Winograd) and
// each regime (in-core simulated cache, out-of-core tile store), report
// measured misses/transfers next to the engine's own lower bound as a
// ratio — each engine against the bound for ITS computation:
//
//   - classical: the tight classical MM bound of Smith et al. ("A Tight
//     I/O Lower Bound for Matrix Multiplication"), leading term
//     2n³/(B√M), with the 3n²/B compulsory floor;
//   - Strassen: the recomputation-robust bound of Bilardi & De Stefani
//     ("The I/O complexity of Strassen's matrix multiplication with
//     recomputation"), Ω((n/√M)^lg7 · M/B), constant taken as 1, same
//     floor.
//
// A ratio near 1 means the recursion is near its bound; the point of
// the experiment is that BOTH engines sit at small constant ratios in
// both regimes while Strassen's absolute numbers undercut the
// classical ones once n/√M is large — the sub-cubic flop count comes
// with sub-classical I/O, not at its expense. The rows carry
// "model=classical|strassen" in their identity so the two bound models
// can never be cross-compared by the regression gate.
//
// The experiment also records the wall-clock acceptance rows for the
// hybrid (classical fused vs Strassen at p=1 and p=8), which the
// compare gate tracks across PRs.
func runBounds2(w io.Writer, scale Scale) error {
	if err := bounds2InCore(w, scale); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := bounds2OOC(w, scale); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return bounds2Wall(w, scale)
}

// mulInput builds a uniform [-1, 1) matrix for the multiply benchmarks.
func mulInput(n int, seed int64) *matrix.Dense[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewSquare[float64](n)
	m.Apply(func(i, j int, _ float64) float64 { return rng.Float64()*2 - 1 })
	return m
}

// classicalMMLowerBound is the Smith et al. tight classical bound in
// misses: 2n³/(B√M) with a 3n²/B compulsory floor (M, B in elements).
func classicalMMLowerBound(n int, mElems, bElems float64) float64 {
	nf := float64(n)
	lb := 2 * nf * nf * nf / (bElems * math.Sqrt(mElems))
	if comp := 3 * nf * nf / bElems; comp > lb {
		lb = comp
	}
	return lb
}

// strassenMMLowerBound is the Bilardi & De Stefani recomputation bound
// in misses: (n/√M)^lg7 · M/B with the Ω-constant folded to 1, same
// compulsory floor (M, B in elements).
func strassenMMLowerBound(n int, mElems, bElems float64) float64 {
	nf := float64(n)
	lb := math.Pow(nf/math.Sqrt(mElems), math.Log2(7)) * mElems / bElems
	if comp := 3 * nf * nf / bElems; comp > lb {
		lb = comp
	}
	return lb
}

// bounds2InCore traces both engines once through MulStrassenGeneric,
// the matrix.Grid backend of the schedule MulStrassen and RunStrassen
// run (bit-identical to both), over Morton-tiled addressing —
// the same best-layout assumption exp_bounds makes — then replays each
// trace against a sweep of LRU cache sizes.
func bounds2InCore(w io.Writer, scale Scale) error {
	n, co := 64, 16
	ms := []int64{2 << 10, 8 << 10}
	if scale == Full {
		n = 128
		ms = []int64{4 << 10, 16 << 10, 64 << 10}
	}
	const lineB = 64
	a, b := mulInput(n, 21), mulInput(n, 22)

	// One trace per engine: c, a, b and every arena temporary get
	// distinct base addresses; recycled temporaries reappear at their
	// old addresses, exactly as the real arena reuses buffers.
	trace := func(crossover int) []int64 {
		rec := &cachesim.TraceRecorder{}
		layout := cachesim.MortonTiled(8)
		base := int64(0)
		place := func(m matrix.Grid[float64]) matrix.Grid[float64] {
			g := cachesim.NewRecording[float64](m, rec, layout, base)
			base = cachesim.NextBase(base, m.N())
			return g
		}
		cg := place(matrix.NewSquare[float64](n))
		ag, bg := place(a), place(b)
		free := map[int][]matrix.Grid[float64]{}
		get := func(h int) matrix.Grid[float64] {
			if l := free[h]; len(l) > 0 {
				g := l[len(l)-1]
				free[h] = l[:len(l)-1]
				return g
			}
			return place(matrix.NewSquare[float64](h))
		}
		put := func(h int, g matrix.Grid[float64]) { free[h] = append(free[h], g) }
		// Base 8 for tracing (same as exp_bounds's I-GEP trace): the
		// result is bitwise base-independent, but a 64-side leaf's
		// working set would drown the recursion at the small simulated
		// M values swept here.
		linalg.MulStrassenGeneric(cg, ag, bg, crossover, get, put, 8)
		return rec.Addrs()
	}
	classicTrace := trace(n) // crossover ≥ n: the purely classical recursion
	strassenTrace := trace(co)

	fmt.Fprintf(w, "In-core: n=%d, B=%d B, LRU replay; Strassen crossover %d:\n\n", n, lineB, co)
	var t Table
	t.Header("M", "engine", "sim misses", "lower bound", "miss/bound")
	const bElems = float64(lineB) / 8
	for _, m := range ms {
		mElems := float64(m) / 8
		for _, e := range []struct {
			name  string
			trace []int64
			bound float64
			model string
		}{
			{"MulFused", classicTrace, classicalMMLowerBound(n, mElems, bElems), "classical"},
			{"MulStrassen", strassenTrace, strassenMMLowerBound(n, mElems, bElems), "strassen"},
		} {
			miss := cachesim.SimulateLRU(e.trace, m, lineB)
			ratio := float64(miss) / e.bound
			Record(Row{Engine: e.name, N: n,
				Param: fmt.Sprintf("incore M=%d model=%s", m, e.model),
				Extra: map[string]float64{
					"misses":      float64(miss),
					"lower_bound": e.bound,
					"ratio":       ratio,
				}})
			t.Row(m, e.name, miss, fmt.Sprintf("%.0f", e.bound), fmt.Sprintf("%.2f", ratio))
		}
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected shape: the classical ratio is a small, M-stable constant (the")
	fmt.Fprintln(w, "Smith et al. bound is tight, constant included). The Strassen column")
	fmt.Fprintln(w, "sits higher and may drift: its bound's omega-constant is folded to 1")
	fmt.Fprintln(w, "and the O(n^2/B) quadrant-addition traffic is not in the leading term.")
	fmt.Fprintln(w, "What must hold is that neither ratio ever dips below 1, and Strassen's")
	fmt.Fprintln(w, "absolute misses undercut the classical engine's as n/sqrt(M) grows.")
	return nil
}

// bounds2OOC runs both engines on the tile store and reports measured
// tile transfers (reads + writes) against the same two bounds with
// M = the cache budget and B = one tile.
func bounds2OOC(w io.Writer, scale Scale) error {
	n, ts := 128, 16
	if scale == Full {
		n, ts = 1024, 64
	}
	tileBytes := int64(ts) * int64(ts) * 8
	cache := 12 * tileBytes // a few tiles: forces eviction at every level
	a, b := mulInput(n, 23), mulInput(n, 24)
	mElems := float64(cache) / 8
	bElems := float64(ts) * float64(ts)

	fmt.Fprintf(w, "Out-of-core: n=%d, tile=%d (B=%d KB), M=%d KB; transfers = tile reads+writes:\n\n",
		n, ts, tileBytes>>10, cache>>10)
	var t Table
	t.Header("engine", "tile reads", "tile writes", "transfers", "lower bound", "transfer/bound")
	for _, e := range []struct {
		name      string
		crossover int
		bound     float64
		model     string
	}{
		{"MulFused", n, classicalMMLowerBound(n, mElems, bElems), "classical"},
		{"MulStrassen", ts, strassenMMLowerBound(n, mElems, bElems), "strassen"},
	} {
		s, err := ooc.Create("", ooc.Config{PageSize: 4096, CacheSize: cache, WriteBehind: 2})
		if err != nil {
			return err
		}
		bytes := int64(n) * int64(n) * 8
		layout := ooc.MortonTiledLayout(ts)
		ma := ooc.NewMatrix(s, n, 0, layout)
		mb := ooc.NewMatrix(s, n, bytes, layout)
		mc := ooc.NewMatrix(s, n, 2*bytes, layout)
		if err := ma.Load(a); err == nil {
			err = mb.Load(b)
		}
		if err != nil {
			s.Close()
			return err
		}
		s.ResetStats()
		var runErr error
		wall, mets := TimeBestMetered(1, func() {
			runErr = ooc.RunStrassen(mc, ma, mb, e.crossover, ooc.RunOptions{})
		})
		st := s.Stats()
		if cerr := s.Close(); runErr == nil {
			runErr = cerr
		}
		if runErr != nil {
			return runErr
		}
		transfers := st.TileReads + st.TileWrites
		ratio := float64(transfers) / e.bound
		Record(Row{Engine: e.name, N: n,
			Param: fmt.Sprintf("ooc M=%d B=%d model=%s", cache, ts, e.model),
			Wall:  wall, Metrics: mets,
			Extra: map[string]float64{
				"tile_reads":  float64(st.TileReads),
				"tile_writes": float64(st.TileWrites),
				"transfers":   float64(transfers),
				"lower_bound": e.bound,
				"ratio":       ratio,
			}})
		t.Row(e.name, st.TileReads, st.TileWrites, transfers,
			fmt.Sprintf("%.0f", e.bound), fmt.Sprintf("%.2f", ratio))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected shape: the classical tile loop sits a small constant above its")
	fmt.Fprintln(w, "tight bound. Strassen's column is higher at these scales: its quadrant")
	fmt.Fprintln(w, "additions stream whole matrices at tile granularity (visible as write")
	fmt.Fprintln(w, "traffic), a cost the leading (n/sqrt(M))^lg7 term does not model, and its")
	fmt.Fprintln(w, "transfer advantage needs n/sqrt(M) far larger than a CI-sized store.")
	fmt.Fprintln(w, "Scratch tiles are materialized read-free (ooc.tile.fresh), so temporaries")
	fmt.Fprintln(w, "cost transfers only when they actually spill.")
	return nil
}

// bounds2Wall records the hybrid's wall-clock acceptance rows:
// classical fused vs Strassen at p=1 and p=8. Full scale runs the
// acceptance size n=2048; small scale keeps cheap CI rows of the same
// shape for the regression gate.
func bounds2Wall(w io.Writer, scale Scale) error {
	n := 256
	if scale == Full {
		n = 2048
	}
	a, b := mulInput(n, 25), mulInput(n, 26)
	c := matrix.NewSquare[float64](n)

	fmt.Fprintf(w, "Wall-clock: n=%d, Strassen crossover %d (auto):\n\n", n, linalg.DefaultCrossover)
	var t Table
	t.Header("engine", "p", "wall time", "speedup vs classical")
	var classical time.Duration
	for _, p := range []int{1, 8} {
		rt := par.NewRuntime(p)
		for _, e := range []struct {
			name string
			run  func()
		}{
			{"MulFused", func() {
				c.Apply(func(int, int, float64) float64 { return 0 })
				linalg.MulFused(c, a, b, 64, core.WithParallel[float64](128), core.WithRuntime[float64](rt))
			}},
			{"MulStrassen", func() {
				linalg.MulStrassen(c, a, b, linalg.DefaultCrossover,
					core.WithParallel[float64](64), core.WithRuntime[float64](rt))
			}},
		} {
			wall, mets := TimeBestMetered(1, e.run)
			extra := map[string]float64{}
			if e.name == "MulFused" {
				classical = wall
			} else {
				extra["speedup_vs_classical"] = float64(classical) / float64(wall)
			}
			extra["gflops_effective"] = linalg.MulFlops(n) / wall.Seconds() / 1e9
			Record(Row{Engine: e.name, N: n, Param: fmt.Sprintf("incore p=%d", p),
				Workers: p, Wall: wall, Metrics: mets, Extra: extra})
			speed := ""
			if e.name == "MulStrassen" {
				speed = fmt.Sprintf("%.2fx", float64(classical)/float64(wall))
			}
			t.Row(e.name, p, wall, speed)
		}
		rt.Close()
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nAcceptance: MulStrassen < MulFused at both worker counts (the speedup")
	fmt.Fprintln(w, "column stays above 1.0); the flop advantage is (n/crossover)^(3-lg7).")
	return nil
}
