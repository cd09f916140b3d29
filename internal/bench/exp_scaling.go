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
	"gep/internal/par"
	"gep/internal/sched"
)

func init() {
	Register(Experiment{
		Name:  "scaling",
		Title: "Work-stealing runtime scalability: fused MM / GE / FW, p = 1,2,4,8",
		Run:   runScaling,
	})
}

// runScaling sweeps the work-stealing runtime's worker count over the
// fused engine-backed kernels and emits one row per (workload, p).
// Each row carries two speedup figures:
//
//   - extra["speedup"]: T_1 / T_p from internal/sched's greedy
//     schedule of the true Figure-6 task DAG at the same (n, grain) —
//     deterministic and machine-independent, the same substitution for
//     the paper's 8-way Opteron that fig12 Part 1 makes (DESIGN.md §4).
//     This is the figure the Figure-12 ordering claim (MM > FW ≈ GE)
//     is checked against.
//   - extra["speedup_wall"]: measured wall-clock T_1 / T_p on this
//     host. Physical speedup needs physical cores; on few-core CI
//     machines this mostly measures runtime overhead, which is exactly
//     what makes it a useful cross-check — a broken scheduler shows up
//     as speedup_wall collapsing at p=1 even when the model says 1.0.
//
// The cross-check column reports T_p^wall / T_p^sim normalized so the
// p=1 entry is 1.0: drift across p means the runtime diverges from the
// greedy schedule the model assumes (e.g. steals failing to move the
// big subtrees).
func runScaling(w io.Writer, scale Scale) error {
	n, grain := 1024, 64
	reps := 1
	if scale == Full {
		n, grain, reps = 2048, 64, 2
	}
	base := 64
	procs := []int{1, 2, 4, 8}

	prevProcs := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		par.ResetWorkers()
	}()

	fmt.Fprintf(w, "Fused kernels on the work-stealing runtime (n=%d, base=%d, grain=%d):\n", n, base, grain)
	fmt.Fprintf(w, "sim speedup = T1/Tp of the greedy DAG schedule (internal/sched);\n")
	fmt.Fprintf(w, "wall speedup = measured on this host (GOMAXPROCS was %d).\n\n", prevProcs)

	type workload struct {
		name string
		wl   sched.Workload
		run  func()
	}
	a, b := randDense(n, 11), randDense(n, 12)
	mmOut := matrix.NewSquare[float64](n)
	luIn := diagDom(n, 13)
	g := apsp.Random(n, 0.25, 100, 14)
	fwIn := g.DistanceMatrix()
	workloads := []workload{
		{"MM", sched.MM, func() {
			mmOut.Fill(0)
			linalg.MulFused(mmOut, a, b, base, core.WithParallel[float64](grain))
		}},
		{"GE", sched.GE, func() {
			m := luIn.Clone()
			linalg.GaussFused(m, base, core.WithParallel[float64](grain))
		}},
		{"FW", sched.FW, func() {
			d := fwIn.Clone()
			apsp.FWFused(d, base, core.WithParallel[float64](grain))
		}},
	}

	var t Table
	t.Header("workload", "p", "wall", "wall speedup", "sim speedup", "wall/sim (norm)")
	for _, wl := range workloads {
		plan := sched.BuildPlan(wl.wl, n, grain)
		dag := sched.Flatten(plan)
		t1 := sched.TotalWork(plan)
		tinf := sched.Span(plan)

		var wall1 time.Duration
		var norm1 float64
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			par.SetWorkers(p)
			wall, met := TimeBestMetered(reps, wl.run)
			simTp := sched.Schedule(dag, p)
			simSpeedup := float64(t1) / float64(simTp)
			if p == 1 {
				wall1 = wall
				norm1 = float64(wall) / float64(simTp)
			}
			wallSpeedup := float64(wall1) / float64(wall)
			crossCheck := float64(wall) / float64(simTp) / norm1
			Record(Row{
				Engine:  wl.name,
				N:       n,
				Param:   fmt.Sprintf("p=%d", p),
				Workers: p,
				Wall:    wall,
				Metrics: met,
				Extra: map[string]float64{
					"speedup":      simSpeedup,
					"speedup_wall": wallSpeedup,
					"sim_makespan": float64(simTp),
					"sim_t1":       float64(t1),
					"sim_tinf":     float64(tinf),
					"wall_vs_sim":  crossCheck,
				},
			})
			t.Row(wl.name, p, wall, wallSpeedup, simSpeedup, crossCheck)
		}
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected (paper, Fig 12): MM scales best — its all-D recursion has")
	fmt.Fprintln(w, "span O(n) vs O(n log^2 n) for the A recursion of GE/FW — so the sim")
	fmt.Fprintln(w, "speedup at p=8 must order MM > FW ≈ GE. Wall speedup tracks it only")
	fmt.Fprintln(w, "with physical cores; the normalized wall/sim column should stay flat.")
	return nil
}
