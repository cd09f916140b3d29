package bench

import (
	"fmt"
	"io"
	"math/rand"

	"gep/internal/cachesim"
	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/matrix"
)

func init() {
	Register(Experiment{
		Name:  "fig10",
		Title: "Figure 10: Gaussian elimination w/o pivoting — GEP vs I-GEP vs tiled (BLAS substitute), % of peak",
		Run:   runFig10,
	})
	Register(Experiment{
		Name:  "fig11",
		Title: "Figure 11: square matrix multiplication — GEP vs I-GEP vs tiled (BLAS substitute), % of peak and cache misses",
		Run:   runFig11,
	})
}

func randDense(n int, seed int64) *matrix.Dense[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewSquare[float64](n)
	m.Apply(func(i, j int, _ float64) float64 { return rng.Float64()*2 - 1 })
	return m
}

func diagDom(n int, seed int64) *matrix.Dense[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewSquare[float64](n)
	m.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return float64(2*n) + rng.Float64()
		}
		return rng.Float64()*2 - 1
	})
	return m
}

func runFig10(w io.Writer, scale Scale) error {
	sizes := []int{256, 512}
	reps := 2
	if scale == Full {
		sizes = []int{512, 1024, 2048}
	}
	peak := PeakGFLOPS()
	fmt.Fprintf(w, "Calibrated peak: %.2f GFLOPS\n\n", peak)
	var t Table
	t.Header("n", "algo", "time", "GFLOPS", "% of peak")
	for _, n := range sizes {
		in := diagDom(n, int64(n))
		flops := linalg.GEFlops(n)
		for _, v := range []struct {
			name string
			run  func(m *matrix.Dense[float64])
		}{
			{"GEP", linalg.LUGEP},
			{"GEP-opt", linalg.LUGEPOpt},
			{"I-GEP(b=64)", func(m *matrix.Dense[float64]) { linalg.LUIGEP(m, 64) }},
			{"tiled(64)", func(m *matrix.Dense[float64]) { linalg.LUTiled(m, 64) }},
		} {
			d, met := TimeBestMetered(reps, func() {
				m := in.Clone()
				v.run(m)
			})
			g := GFLOPS(flops, d)
			Record(Row{Engine: v.name, N: n, Wall: d, GFLOPS: g, PctPeak: 100 * g / peak, Metrics: met})
			t.Row(n, v.name, d, g, 100*g/peak)
		}
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected shape (paper, Fig 10): cache-aware tuned code (GotoBLAS there,")
	fmt.Fprintln(w, "our tiled kernel here) > I-GEP > GEP in percent-of-peak, with I-GEP within ~1.5x")
	fmt.Fprintln(w, "of the cache-aware code and several times above naive GEP.")
	return nil
}

func runFig11(w io.Writer, scale Scale) error {
	sizes := []int{256, 512}
	reps := 2
	if scale == Full {
		sizes = []int{512, 1024, 2048}
	}
	peak := PeakGFLOPS()
	fmt.Fprintf(w, "Calibrated peak: %.2f GFLOPS\n\n", peak)
	var t Table
	t.Header("n", "algo", "time", "GFLOPS", "% of peak")
	for _, n := range sizes {
		a, b := randDense(n, 1), randDense(n, 2)
		flops := linalg.MulFlops(n)
		for _, v := range []struct {
			name string
			run  func(c *matrix.Dense[float64])
		}{
			{"GEP", func(c *matrix.Dense[float64]) { linalg.MulNaive(c, a, b) }},
			{"I-GEP(b=64)", func(c *matrix.Dense[float64]) { linalg.MulFused(c, a, b, 64) }},
			{"tiled(64)", func(c *matrix.Dense[float64]) { linalg.MulTiled(c, a, b, 64) }},
		} {
			d, met := TimeBestMetered(reps, func() {
				c := matrix.NewSquare[float64](n)
				v.run(c)
			})
			g := GFLOPS(flops, d)
			Record(Row{Engine: v.name, N: n, Wall: d, GFLOPS: g, PctPeak: 100 * g / peak, Metrics: met})
			t.Row(n, v.name, d, g, 100*g/peak)
		}
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}

	// Miss counts: identical access patterns re-executed through
	// traced grids on the simulated Xeon-like hierarchy.
	missN := 128
	if scale == Full {
		missN = 256
	}
	fmt.Fprintf(w, "\nSimulated cache misses at n=%d (8 KB L1 / 64 KB L2 scaled geometry):\n", missN)
	var t2 Table
	t2.Header("algo", "L1 misses", "L2 misses")
	mulU := core.MulAdd[float64]{}
	for _, v := range []struct {
		name string
		run  func(h *cachesim.Hierarchy, c, a, b matrix.Grid[float64])
	}{
		{"GEP", func(h *cachesim.Hierarchy, c, a, b matrix.Grid[float64]) {
			n := c.N()
			for i := 0; i < n; i++ {
				for k := 0; k < n; k++ {
					for j := 0; j < n; j++ {
						c.Set(i, j, c.At(i, j)+a.At(i, k)*b.At(k, j))
					}
				}
			}
		}},
		// Base 8 lets the recursion keep adapting below the L1
		// working set — the cache-oblivious multilevel advantage the
		// single-tile-size kernel lacks.
		{"I-GEP(b=8)", func(h *cachesim.Hierarchy, c, a, b matrix.Grid[float64]) {
			core.RunDisjoint[float64](c, a, b, b, mulU, core.Full{}, core.WithBaseSize[float64](8))
		}},
		{"tiled(32)", func(h *cachesim.Hierarchy, c, a, b matrix.Grid[float64]) {
			tracedTiledMul(c, a, b, 32)
		}},
	} {
		h := cachesim.Scaled(8<<10, 64<<10, 64)
		n := missN
		layout := cachesim.RowMajor
		base0 := int64(0)
		base1 := cachesim.NextBase(base0, n)
		base2 := cachesim.NextBase(base1, n)
		c := cachesim.NewTraced[float64](matrix.NewSquare[float64](n), h, layout, base0)
		ag := cachesim.NewTraced[float64](randDense(n, 1), h, layout, base1)
		bg := cachesim.NewTraced[float64](randDense(n, 2), h, layout, base2)
		v.run(h, c, ag, bg)
		Record(Row{Engine: v.name, N: n, Param: "sim=misses",
			L1Misses: h.Level(0).Misses, L2Misses: h.Level(1).Misses})
		t2.Row(v.name, h.Level(0).Misses, h.Level(1).Misses)
	}
	if _, err := t2.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected shape (paper, Fig 11): tuned cache-aware code > I-GEP > GEP")
	fmt.Fprintln(w, "in percent-of-peak, while I-GEP incurs the fewest (or equal-fewest) cache misses")
	fmt.Fprintln(w, "— the BLAS speed advantage is not a cache advantage.")
	return nil
}

// tracedTiledMul replays MulTiled's access pattern over Grid
// interfaces so the cache simulator sees exactly what the tiled kernel
// touches.
func tracedTiledMul(c, a, b matrix.Grid[float64], tile int) {
	n := c.N()
	for ii := 0; ii < n; ii += tile {
		iMax := ii + tile
		if iMax > n {
			iMax = n
		}
		for kk := 0; kk < n; kk += tile {
			kMax := kk + tile
			if kMax > n {
				kMax = n
			}
			for jj := 0; jj < n; jj += tile {
				jMax := jj + tile
				if jMax > n {
					jMax = n
				}
				for i := ii; i < iMax; i++ {
					for k := kk; k < kMax; k++ {
						aik := a.At(i, k)
						for j := jj; j < jMax; j++ {
							c.Set(i, j, c.At(i, j)+aik*b.At(k, j))
						}
					}
				}
			}
		}
	}
}
