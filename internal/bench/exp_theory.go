package bench

import (
	"fmt"
	"io"
	"math/rand"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/trace"
	"gep/internal/vec"
)

func init() {
	Register(Experiment{
		Name:  "table1",
		Title: "Table 1: states read by G and F before each update (theorem check)",
		Run:   runTable1,
	})
	Register(Experiment{
		Name:  "table2",
		Title: "Table 2: experimental machine (host introspection + calibrated peak)",
		Run:   runTable2,
	})
}

// runTable1 validates Table 1 on live executions: the F column via
// Theorem 2.2 (π/δ states) on instrumented I-GEP runs, and the G
// column on instrumented iterative runs, over random and standard
// update sets.
func runTable1(w io.Writer, scale Scale) error {
	fmt.Fprintln(w, "Table 1 — operand states before update <i,j,k> (0-based states, -1 = initial):")
	fmt.Fprintln(w, "  cell     G reads                      F (I-GEP) reads")
	fmt.Fprintln(w, "  c[i,j]   state k-1                    state k-1")
	fmt.Fprintln(w, "  c[i,k]   state k-1 if j<=k else k     state pi(j,k)")
	fmt.Fprintln(w, "  c[k,j]   state k-1 if i<=k else k     state pi(i,k)")
	fmt.Fprintln(w, "  c[k,k]   state k-1 if i<k or          state delta(i,j,k)")
	fmt.Fprintln(w, "           (i=k and j<=k) else k")
	fmt.Fprintln(w)

	sizes := []int{4, 8, 16}
	trials := 3
	if scale == Full {
		sizes = []int{4, 8, 16, 32}
		trials = 8
	}

	rng := rand.New(rand.NewSource(1))
	f := func(i, j, k int, x, u, v, w int64) int64 { return x + 2*u + 3*v + 5*w }

	var t Table
	t.Header("set", "n", "updates", "thm2.1+2.2 (F)", "table1-G (G)")
	check := func(name string, set core.UpdateSet, n int) error {
		in := matrix.NewSquare[int64](n)
		in.Apply(func(i, j int, _ int64) int64 { return rng.Int63n(1000) - 500 })
		count, err := trace.VerifyIGEP(in, f, set)
		fRes := "PASS"
		if err != nil {
			fRes = "FAIL: " + err.Error()
		}
		_, gErr := trace.VerifyGEP(in, f, set)
		gRes := "PASS"
		if gErr != nil {
			gRes = "FAIL: " + gErr.Error()
		}
		t.Row(name, n, count, fRes, gRes)
		Record(Row{Engine: name, N: n, Status: "F:" + fRes + " G:" + gRes,
			Extra: map[string]float64{"updates": float64(count)}})
		if err != nil {
			return err
		}
		return gErr
	}

	for _, n := range sizes {
		for trial := 0; trial < trials; trial++ {
			set := core.NewExplicit(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					for k := 0; k < n; k++ {
						if rng.Float64() < 0.5 {
							set.Add(i, j, k)
						}
					}
				}
			}
			if err := check(fmt.Sprintf("random#%d", trial), set, n); err != nil {
				t.WriteTo(w)
				return err
			}
		}
		for name, set := range map[string]core.UpdateSet{
			"full": core.Full{}, "gaussian": core.Gaussian{}, "lu": core.LU{},
		} {
			if err := check(name, set, n); err != nil {
				t.WriteTo(w)
				return err
			}
		}
	}
	_, err := t.WriteTo(w)
	return err
}

// runTable2 prints the machine description, mirroring the paper's
// Table 2 (which lists the Xeon/Opteron machines; we report the actual
// host plus the simulated cache geometries used by the miss-count
// experiments).
func runTable2(w io.Writer, scale Scale) error {
	h := Host()
	Record(Row{Engine: "host", Extra: map[string]float64{
		"cpus": float64(h.CPUs), "peak_gflops": h.PeakGFLOPS,
	}})
	var t Table
	t.Header("property", "value")
	t.Row("go", h.GoVersion)
	t.Row("os/arch", h.OS+"/"+h.Arch)
	t.Row("cpus", h.CPUs)
	t.Row("measured peak GFLOPS", h.PeakGFLOPS)
	t.Row("float64 row kernels", vec.Tier())
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Simulated cache geometries (paper's Table 2 machines):")
	var t2 Table
	t2.Header("machine", "L1", "L2", "line")
	t2.Row("Intel P4 Xeon", "8 KB 4-way", "512 KB 8-way", "64 B")
	t2.Row("AMD Opteron 250/850", "64 KB 2-way", "1 MB 8-way", "64 B")
	_, err := t2.WriteTo(w)
	return err
}
