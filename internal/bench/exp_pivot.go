package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"

	"gep/internal/linalg"
	"gep/internal/matrix"
	"gep/internal/par"
	"gep/internal/sched"
)

func init() {
	Register(Experiment{
		Name:  "pivot",
		Title: "Tournament-pivoted CALU: adversarial residual oracle, p-scaling, simulated communication vs the near-optimal bound",
		Run:   runPivot,
	})
}

// runPivot measures the communication-avoiding pivoted LU
// (linalg.FactorCA) in three parts:
//
//  1. Residual oracle on the shared adversarial fixtures
//     (linalg.Adversarial): the separating fixtures must show the
//     unpivoted I-GEP path diverging (residual > 1e-3 or non-finite)
//     while FactorCA stays ≤ 1e-10 — ROADMAP item 4's acceptance.
//  2. Wall/GFLOPS scaling of FactorCAParallel at p = 1..8.
//  3. Simulated per-processor communication volume of the pivoted
//     block schedule (sched.SimulateCALU) for p ∈ {1,2,4,8} and 2.5D
//     replication c ∈ {1,2,4}, against the Kwasniewski et al. lower
//     bound n³/(P·√M); the acceptance band is a factor of 4.
func runPivot(w io.Writer, scale Scale) error {
	oracleN, sweepN, commN := 64, 256, 2048
	reps := 1
	if scale == Full {
		oracleN, sweepN, commN, reps = 128, 1024, 8192, 2
	}

	// Part 1: adversarial residual oracle, pivoted vs unpivoted.
	fmt.Fprintf(w, "Adversarial residual oracle (n=%d):\n\n", oracleN)
	var t1 Table
	t1.Header("fixture", "separates", "FactorCA residual", "unpivoted residual")
	for _, fix := range linalg.Adversarial() {
		n := oracleN
		if fix.Name == "wilkinson" {
			// Growth 2^(n-1) exhausts float64 beyond n≈50 for every
			// pivot order; measure it where the comparison is exact.
			n = 32
		}
		a := fix.Make(n)
		b := make([]float64, n)
		for i := range b {
			b[i] = 1 + float64(i%7)
		}
		var pivoted float64
		status := "ok"
		f, err := linalg.FactorCA(a)
		if err != nil {
			pivoted = math.Inf(1)
			status = "factor-failed"
		} else {
			pivoted = linalg.Residual(a, f.Solve(b), b)
		}
		unpivoted := unpivotedLUResidual(a, b)
		if fix.Separates {
			if !(pivoted <= 1e-10) || unpivoted <= 1e-3 {
				status = "FAIL"
			}
		}
		Record(Row{
			Engine: "oracle/" + fix.Name,
			N:      n,
			Status: status,
			Extra: map[string]float64{
				// JSON has no Inf/NaN: clamp divergent residuals to a
				// finite sentinel (the "diverged" flag carries the bit).
				"residual_pivoted":   jsonFinite(pivoted),
				"residual_unpivoted": jsonFinite(unpivoted),
				"diverged_unpivoted": boolToFloat(math.IsInf(unpivoted, 0) || math.IsNaN(unpivoted)),
				"separates":          boolToFloat(fix.Separates),
			},
		})
		t1.Row(fix.Name, fix.Separates, pivoted, unpivoted)
	}
	if _, err := t1.WriteTo(w); err != nil {
		return err
	}

	// Part 2: p-sweep of the parallel factorization.
	fmt.Fprintf(w, "\nFactorCAParallel scaling (n=%d, panel=32):\n\n", sweepN)
	prevProcs := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		par.ResetWorkers()
	}()
	in := randDense(sweepN, 17)
	flops := linalg.GEFlops(sweepN)
	peak := PeakGFLOPS()
	var t2 Table
	t2.Header("p", "wall", "GFLOPS", "speedup")
	var wall1 float64
	for p := 1; p <= 8; p++ {
		runtime.GOMAXPROCS(p)
		par.SetWorkers(p)
		var ferr error
		d, met := TimeBestMetered(reps, func() {
			_, ferr = linalg.FactorCAParallel(in)
		})
		if ferr != nil {
			return fmt.Errorf("pivot: FactorCAParallel(n=%d, p=%d): %w", sweepN, p, ferr)
		}
		g := GFLOPS(flops, d)
		if p == 1 {
			wall1 = float64(d)
		}
		speedup := wall1 / float64(d)
		Record(Row{
			Engine:  "FactorCA",
			N:       sweepN,
			Param:   fmt.Sprintf("p=%d", p),
			Workers: p,
			Wall:    d,
			GFLOPS:  g,
			PctPeak: 100 * g / peak,
			Metrics: met,
			Extra:   map[string]float64{"speedup_wall": speedup},
		})
		t2.Row(p, d, g, speedup)
	}
	if _, err := t2.WriteTo(w); err != nil {
		return err
	}

	// Part 3: simulated communication volume vs the near-optimal bound.
	fmt.Fprintf(w, "\nSimulated per-processor communication (n=%d, panel=32), words:\n", commN)
	fmt.Fprintf(w, "bound = n^3/(P*sqrt(M)) at the 2.5D working set M = c*n^2/P;\n")
	fmt.Fprintf(w, "acceptance: total within 4x of the bound (and swaps/reduce show\n")
	fmt.Fprintf(w, "the replication tradeoff).\n\n")
	var t3 Table
	t3.Header("p", "c", "tournament", "bcast", "swaps", "reduce", "total", "bound", "ratio")
	for _, p := range []int{1, 2, 4, 8} {
		for _, c := range []int{1, 2, 4} {
			if p%c != 0 {
				continue
			}
			cfg := sched.CALUConfig{N: commN, Panel: 32, P: p, C: c}
			v, err := sched.SimulateCALU(cfg)
			if err != nil {
				return err
			}
			bound := sched.LUCommLowerBound(commN, p, cfg.Memory())
			ratio := 0.0
			status := "ok"
			if bound > 0 && v.Total() > 0 {
				ratio = v.Total() / bound
				if ratio > 4 {
					status = "FAIL"
				}
			}
			Record(Row{
				Engine: "CALU-sim",
				N:      commN,
				Param:  fmt.Sprintf("p=%d,c=%d", p, c),
				Status: status,
				Extra: map[string]float64{
					"vol_tournament": v.Tournament,
					"vol_bcast":      v.PanelBcast + v.TrailingU,
					"vol_swap":       v.RowSwap,
					"vol_reduce":     v.Reduce,
					"vol_total":      v.Total(),
					"bound":          bound,
					"bound_ratio":    ratio,
				},
			})
			t3.Row(p, c, v.Tournament, v.PanelBcast+v.TrailingU, v.RowSwap, v.Reduce, v.Total(), bound, ratio)
		}
	}
	if _, err := t3.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected: the separating fixtures (tinypivot, signalt) diverge without")
	fmt.Fprintln(w, "pivoting and solve to machine precision with it; simulated volume stays")
	fmt.Fprintln(w, "within 4x of the near-optimal bound, with broadcasts shrinking as c grows")
	fmt.Fprintln(w, "while swap/reduce traffic records the replication price.")
	return nil
}

// unpivotedLUResidual runs the pivot-free I-GEP factorization and
// returns the solve residual, +Inf when the factors went non-finite.
func unpivotedLUResidual(a *matrix.Dense[float64], b []float64) float64 {
	lu := a.Clone()
	linalg.LUIGEP(lu, 32)
	x := linalg.SolveLU(lu, b)
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.Inf(1)
		}
	}
	r := linalg.Residual(a, x, b)
	if math.IsNaN(r) {
		return math.Inf(1)
	}
	return r
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// jsonFinite clamps non-finite measurements to a large finite
// sentinel, since encoding/json rejects Inf and NaN.
func jsonFinite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1e300
	}
	return v
}
