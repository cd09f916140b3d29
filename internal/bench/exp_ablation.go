package bench

import (
	"fmt"
	"io"

	"gep/internal/apsp"
	"gep/internal/cachesim"
	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/matrix"
)

// Ablation benches for the design choices called out in DESIGN.md §5.

func init() {
	Register(Experiment{
		Name:  "ablation-base",
		Title: "Ablation: I-GEP base-size (the paper's empirically tuned knob, §4.2)",
		Run:   runAblationBase,
	})
	Register(Experiment{
		Name:  "ablation-layout",
		Title: "Ablation: row-major vs bit-interleaved (Morton) layout, incl. conversion",
		Run:   runAblationLayout,
	})
	Register(Experiment{
		Name:  "ablation-prune",
		Title: "Ablation: quadrant pruning (line 1 of F) on/off for a sparse update set",
		Run:   runAblationPrune,
	})
	Register(Experiment{
		Name:  "ablation-grain",
		Title: "Ablation: parallel grain size (spawn overhead vs exposed parallelism)",
		Run:   runAblationGrain,
	})
}

func runAblationBase(w io.Writer, scale Scale) error {
	n := 512
	bases := []int{8, 16, 32, 64, 128}
	if scale == Full {
		n = 1024
		bases = []int{8, 16, 32, 64, 128, 256, 512, 1024}
	}
	a, b := randDense(n, 11), randDense(n, 12)
	fmt.Fprintf(w, "I-GEP MM (MulFused) at n=%d, varying base-size (paper found 64-128 optimal):\n\n", n)
	var t Table
	t.Header("base", "time", "GFLOPS")
	for _, base := range bases {
		d, met := TimeBestMetered(2, func() {
			c := matrix.NewSquare[float64](n)
			linalg.MulFused(c, a, b, base)
		})
		Record(Row{Engine: "MulIGEP", N: n, Param: fmt.Sprintf("base=%d", base),
			Wall: d, GFLOPS: GFLOPS(linalg.MulFlops(n), d), Metrics: met})
		t.Row(base, d, GFLOPS(linalg.MulFlops(n), d))
	}
	_, err := t.WriteTo(w)
	return err
}

func runAblationLayout(w io.Writer, scale Scale) error {
	n := 512
	if scale == Full {
		n = 1024
	}
	const base = 64
	a, b := randDense(n, 13), randDense(n, 14)
	fmt.Fprintf(w, "MM at n=%d, base=%d: row-major recursion vs Morton-tiled storage\n", n, base)
	fmt.Fprintln(w, "(conversion to/from the tiled layout included, as the paper reports):")
	fmt.Fprintln(w)
	var t Table
	t.Header("layout", "time", "GFLOPS")
	dRow := TimeBest(2, func() {
		c := matrix.NewSquare[float64](n)
		linalg.MulFused(c, a, b, base)
	})
	Record(Row{Engine: "MulIGEP", N: n, Param: "layout=row-major",
		Wall: dRow, GFLOPS: GFLOPS(linalg.MulFlops(n), dRow)})
	t.Row("row-major", dRow, GFLOPS(linalg.MulFlops(n), dRow))
	dMorton := TimeBest(2, func() {
		at := matrix.NewTiled[float64](n, base)
		bt := matrix.NewTiled[float64](n, base)
		ct := matrix.NewTiled[float64](n, base)
		at.FromDense(a)
		bt.FromDense(b)
		linalg.MulTiledMorton(ct, at, bt, base)
		_ = ct.ToDense()
	})
	Record(Row{Engine: "MulIGEP", N: n, Param: "layout=morton+convert",
		Wall: dMorton, GFLOPS: GFLOPS(linalg.MulFlops(n), dMorton)})
	t.Row("morton+convert", dMorton, GFLOPS(linalg.MulFlops(n), dMorton))
	if _, err := t.WriteTo(w); err != nil {
		return err
	}

	// TLB pressure — the paper's stated reason for bit-interleaving
	// (§4.2): simulate a small TLB under the I-GEP recursion in each
	// layout.
	tlbN := 128
	fmt.Fprintf(w, "\nSimulated TLB misses (16-entry, 4 KB pages) for I-GEP FW at n=%d:\n\n", tlbN)
	var t2 Table
	t2.Header("layout", "TLB misses")
	for _, v := range []struct {
		name   string
		layout func(n int) func(i, j int) int64
	}{
		{"row-major", cachesim.RowMajor},
		{"morton(32)", cachesim.MortonTiled(32)},
	} {
		tlb := cachesim.TLB(16, 4096)
		h := cachesim.NewHierarchy(tlb)
		m := matrix.NewSquare[float64](tlbN)
		g := cachesim.NewTraced[float64](m, h, v.layout, 0)
		core.RunIGEP[float64](g, fwUpdate, core.Full{}, core.WithBaseSize[float64](32))
		Record(Row{Engine: "I-GEP FW", N: tlbN, Param: "layout=" + v.name,
			Extra: map[string]float64{"tlb_misses": float64(tlb.Stats().Misses)}})
		t2.Row(v.name, tlb.Stats().Misses)
	}
	if _, err := t2.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected shape: the Morton layout touches far fewer pages per base")
	fmt.Fprintln(w, "block, so its TLB misses are well below row-major's.")
	return nil
}

func runAblationPrune(w io.Writer, scale Scale) error {
	n := 256
	if scale == Full {
		n = 512
	}
	in := diagDom(n, 15)
	lu := core.LUFactor[float64]{}
	fmt.Fprintf(w, "Generic I-GEP on the LU set (touches ~1/3 of quadrant boxes) at n=%d:\n\n", n)
	var t Table
	t.Header("pruning", "time")
	for _, prune := range []bool{true, false} {
		p := prune
		d, met := TimeBestMetered(2, func() {
			m := in.Clone()
			core.RunIGEP[float64](m, lu, core.LU{},
				core.WithBaseSize[float64](32), core.WithPrune[float64](p))
		})
		Record(Row{Engine: "I-GEP LU", N: n, Param: fmt.Sprintf("prune=%t", p),
			Wall: d, Metrics: met})
		t.Row(p, d)
	}
	_, err := t.WriteTo(w)
	return err
}

func runAblationGrain(w io.Writer, scale Scale) error {
	n := 256
	grains := []int{32, 64, 128, 256}
	if scale == Full {
		n = 512
		grains = []int{32, 64, 128, 256, 512}
	}
	g := apsp.Random(n, 0.3, 1000, 16)
	in := g.DistanceMatrix()
	fmt.Fprintf(w, "Parallel FW at n=%d, varying spawn grain (grain=n is serial):\n\n", n)
	var t Table
	t.Header("grain", "time")
	for _, grain := range grains {
		gr := grain
		d, met := TimeBestMetered(2, func() {
			m := in.Clone()
			apsp.FWFused(m, 32, core.WithParallel[float64](gr))
		})
		Record(Row{Engine: "FWParallel", N: n, Param: fmt.Sprintf("grain=%d", gr),
			Wall: d, Metrics: met})
		t.Row(gr, d)
	}
	_, err := t.WriteTo(w)
	return err
}
