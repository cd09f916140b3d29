package apsp

import (
	"fmt"
	"testing"

	"gep/internal/core"
	"gep/internal/par"
)

// TestFWFusedMatchesGEP: the engine applies each cell's updates in
// ascending k, so at every base size it must equal, bit for bit, the
// iterative GEP loop G run with the bare min-plus Func.
func TestFWFusedMatchesGEP(t *testing.T) {
	for _, n := range []int{4, 16, 64} {
		for _, base := range []int{1, 8, 64} {
			g := Random(n, 0.25, 100, int64(7*n+base))
			want := g.DistanceMatrix()
			core.RunGEP[float64](want, core.MinPlus[float64]{}.Func(), core.Full{})
			got := g.DistanceMatrix()
			FWFused(got, base)
			if !exactEq(want, got) {
				t.Fatalf("n=%d base=%d: fused FW differs from the G loop", n, base)
			}
		}
	}
}

// TestFWFusedParallelMatchesSerial: with WithParallel the entry point
// runs the same updates through the work-stealing runtime, so at every
// worker count, and on a runtime of its own, the result must be
// bitwise equal to the serial run.
func TestFWFusedParallelMatchesSerial(t *testing.T) {
	defer par.ResetWorkers()
	const n, base, grain = 64, 8, 16
	g := Random(n, 0.25, 100, 99)
	want := g.DistanceMatrix()
	FWFused(want, base)
	check := func(label string, opts ...core.Option[float64]) {
		got := g.DistanceMatrix()
		FWFused(got, base, opts...)
		if !exactEq(want, got) {
			t.Fatalf("%s: parallel FWFused differs from serial", label)
		}
	}
	for _, p := range []int{1, 2, 4} {
		par.SetWorkers(p)
		check(fmt.Sprintf("p=%d", p), core.WithParallel[float64](grain))
	}
	rt := par.NewRuntime(2)
	defer rt.Close()
	check("own runtime", core.WithParallel[float64](grain), core.WithRuntime[float64](rt))
}
