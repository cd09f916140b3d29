package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"gep/internal/apsp"
	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/matrix"
	"gep/internal/sched"
)

func init() {
	Register(Experiment{
		Name:  "fig12",
		Title: "Figure 12: multithreaded I-GEP speedup for MM / GE / FW, p = 1..8",
		Run:   runFig12,
	})
}

func runFig12(w io.Writer, scale Scale) error {
	// Part 1: simulated speedups from the true task DAG (the
	// substitution for the paper's 8-processor Opteron 850 — see
	// DESIGN.md §4). r = n/grain matches the paper's effective task
	// granularity (n = 5000, base-size 64 ≈ 78; we use the nearest
	// power of two regime).
	// r = n/grain = 16 matches the effective task granularity of the
	// paper's runs (n = 5000 with coarse pthreads tasks); larger r
	// makes every curve saturate at p trivially.
	n, grain := 512, 32
	if scale == Full {
		n, grain = 4096, 256
	}
	fmt.Fprintf(w, "Simulated speedup from the Figure-6 task DAG (n=%d, grain=%d):\n\n", n, grain)
	procs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	var t Table
	t.Header("workload", "T1 (work)", "Tinf (span)", "p=1", "p=2", "p=4", "p=6", "p=8")
	for _, wl := range []sched.Workload{sched.MM, sched.GE, sched.FW} {
		plan := sched.BuildPlan(wl, n, grain)
		curve := sched.SpeedupCurve(plan, procs)
		byP := map[int]float64{}
		extra := map[string]float64{
			"t1":   float64(sched.TotalWork(plan)),
			"tinf": float64(sched.Span(plan)),
		}
		for _, c := range curve {
			byP[c.P] = c.Speedup
			extra[fmt.Sprintf("speedup_p%d", c.P)] = c.Speedup
		}
		Record(Row{Engine: wl.String(), N: n, Param: "model=dag", Extra: extra})
		t.Row(wl.String(), sched.TotalWork(plan), sched.Span(plan),
			byP[1], byP[2], byP[4], byP[6], byP[8])
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected shape (paper, Fig 12): MM speeds up best (~6x at p=8 there),")
	fmt.Fprintln(w, "FW and GE below it (5.73x / 5.33x) — MM's all-D recursion has span O(n)")
	fmt.Fprintln(w, "vs O(n log^2 n) for the A recursion. (In the pure DAG model GE edges")
	fmt.Fprintln(w, "slightly ahead of FW; see EXPERIMENTS.md.)")

	// Part 2: the real goroutine implementations, timed at whatever
	// parallelism this host offers (wall-clock speedup requires
	// physical cores; with 1 CPU this measures spawn overhead only).
	nReal := 256
	if scale == Full {
		nReal = 512
	}
	fmt.Fprintf(w, "\nGoroutine implementations at GOMAXPROCS=%d (n=%d):\n\n", runtime.GOMAXPROCS(0), nReal)
	var t2 Table
	t2.Header("workload", "serial", "parallel(grain=64)", "ratio")
	record := func(workload string, ds, dp time.Duration, metS, metP map[string]int64) {
		Record(Row{Engine: workload, N: nReal, Param: "exec=serial", Wall: ds, Metrics: metS})
		Record(Row{Engine: workload, N: nReal, Param: "exec=parallel", Wall: dp, Metrics: metP})
		t2.Row(workload, ds, dp, float64(ds)/float64(dp))
	}
	{
		a, b := randDense(nReal, 3), randDense(nReal, 4)
		ds, metS := TimeBestMetered(2, func() {
			c := newZero(nReal)
			linalg.MulFused(c, a, b, 32)
		})
		dp, metP := TimeBestMetered(2, func() {
			c := newZero(nReal)
			linalg.MulFused(c, a, b, 32, core.WithParallel[float64](64))
		})
		record("MM", ds, dp, metS, metP)
	}
	{
		in := diagDom(nReal, 5)
		ds, metS := TimeBestMetered(2, func() {
			m := in.Clone()
			linalg.LUIGEP(m, 32)
		})
		dp, metP := TimeBestMetered(2, func() {
			m := in.Clone()
			linalg.LUIGEP(m, 32, core.WithParallel[float64](64))
		})
		record("GE", ds, dp, metS, metP)
	}
	{
		g := apsp.Random(nReal, 0.3, 1000, 6)
		in := g.DistanceMatrix()
		ds, metS := TimeBestMetered(2, func() {
			d := in.Clone()
			apsp.FWFused(d, 32)
		})
		dp, metP := TimeBestMetered(2, func() {
			d := in.Clone()
			apsp.FWFused(d, 32, core.WithParallel[float64](64))
		})
		record("FW", ds, dp, metS, metP)
	}
	_, err := t2.WriteTo(w)
	return err
}

func newZero(n int) *matrix.Dense[float64] { return matrix.NewSquare[float64](n) }
