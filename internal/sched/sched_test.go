package sched

import (
	"reflect"
	"testing"
)

func TestLeafAndCombinators(t *testing.T) {
	p := Seq{Leaf{10}, Par{Leaf{5}, Leaf{7}}, Leaf{3}}
	if got := TotalWork(p); got != 25 {
		t.Fatalf("TotalWork = %d, want 25", got)
	}
	if got := Span(p); got != 20 { // 10 + max(5,7) + 3
		t.Fatalf("Span = %d, want 20", got)
	}
}

func TestScheduleSerialEqualsWork(t *testing.T) {
	for _, w := range []Workload{FW, GE, MM} {
		p := BuildPlan(w, 32, 4)
		d := Flatten(p)
		if got, want := Schedule(d, 1), TotalWork(p); got != want {
			t.Fatalf("%v: T_1 = %d, want total work %d", w, got, want)
		}
	}
}

func TestScheduleRespectsBrentBound(t *testing.T) {
	// Greedy scheduling satisfies T_p <= T_1/p + T_inf and
	// T_p >= max(T_1/p, T_inf).
	for _, w := range []Workload{FW, GE, MM} {
		p := BuildPlan(w, 64, 8)
		d := Flatten(p)
		t1 := TotalWork(p)
		tinf := Span(p)
		for _, q := range []int{1, 2, 4, 8, 16} {
			tp := Schedule(d, q)
			lower := t1 / int64(q)
			if tinf > lower {
				lower = tinf
			}
			if tp < lower {
				t.Fatalf("%v p=%d: T_p=%d below lower bound %d", w, q, tp, lower)
			}
			if upper := t1/int64(q) + tinf + 1; tp > upper {
				t.Fatalf("%v p=%d: T_p=%d above Brent bound %d", w, q, tp, upper)
			}
		}
	}
}

func TestWorkCounts(t *testing.T) {
	// FW/MM over n³; GE over {k<i, k<j}: sum_k (n-1-k)² = n(n-1)(2n-1)/6.
	n := 16
	if got := TotalWork(BuildPlan(FW, n, 2)); got != int64(n*n*n) {
		t.Fatalf("FW work = %d, want %d", got, n*n*n)
	}
	if got := TotalWork(BuildPlan(MM, n, 2)); got != int64(n*n*n) {
		t.Fatalf("MM work = %d, want %d", got, n*n*n)
	}
	wantGE := int64(n * (n - 1) * (2*n - 1) / 6)
	if got := TotalWork(BuildPlan(GE, n, 2)); got != wantGE {
		t.Fatalf("GE work = %d, want %d", got, wantGE)
	}
}

func TestMMHasShorterSpanThanFW(t *testing.T) {
	// Theorem 3.1: span O(n log² n) for the A recursion vs O(n) for
	// the MM recursion. At equal n and grain, MM's span must be
	// strictly smaller and the gap must widen with n.
	prevRatio := 0.0
	for _, n := range []int{16, 32, 64, 128} {
		fw := Span(BuildPlan(FW, n, 1))
		mm := Span(BuildPlan(MM, n, 1))
		if mm >= fw {
			t.Fatalf("n=%d: span(MM)=%d >= span(FW)=%d", n, mm, fw)
		}
		ratio := float64(fw) / float64(mm)
		if ratio <= prevRatio {
			t.Fatalf("n=%d: span ratio %.2f did not grow (prev %.2f)", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestMMSpanLinear(t *testing.T) {
	// Span(MM) with grain 1 is exactly 2n - 1... each level doubles
	// the sequential k-halves: S(n) = 2 S(n/2), S(1) = 1 → S(n) = n.
	for _, n := range []int{2, 8, 64} {
		if got := Span(BuildPlan(MM, n, 1)); got != int64(n) {
			t.Fatalf("span(MM, n=%d) = %d, want %d", n, got, n)
		}
	}
}

// TestSpeedupOrdering reproduces Figure 12's qualitative finding: at
// p = 8 the speedups order MM >= FW >= GE.
func TestSpeedupOrdering(t *testing.T) {
	const n, grain = 256, 16
	at8 := func(w Workload) float64 {
		c := SpeedupCurve(BuildPlan(w, n, grain), []int{8})
		return c[0].Speedup
	}
	mm, fw, ge := at8(MM), at8(FW), at8(GE)
	if !(mm >= fw && fw >= ge) {
		t.Fatalf("speedup ordering violated: MM=%.2f FW=%.2f GE=%.2f", mm, fw, ge)
	}
	if mm < 4 {
		t.Fatalf("MM speedup at p=8 is %.2f; expected substantial parallelism", mm)
	}
}

func TestSpeedupMonotonic(t *testing.T) {
	curve := SpeedupCurve(BuildPlan(FW, 128, 8), []int{1, 2, 3, 4, 5, 6, 7, 8})
	if curve[0].Speedup != 1 {
		t.Fatalf("speedup at p=1 is %.3f, want 1", curve[0].Speedup)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Makespan > curve[i-1].Makespan {
			t.Fatalf("makespan increased from p=%d to p=%d", curve[i-1].P, curve[i].P)
		}
	}
}

func TestFlattenJoinNodesKeepEdgesLinear(t *testing.T) {
	// A Seq of two wide Pars must use a barrier node rather than a
	// quadratic bipartite connection.
	wide := make(Par, 100)
	for i := range wide {
		wide[i] = Leaf{1}
	}
	d := Flatten(Seq{wide, wide})
	edges := 0
	for _, s := range d.succs {
		edges += len(s)
	}
	if edges > 300 {
		t.Fatalf("edge count %d suggests quadratic connection", edges)
	}
	if got := Schedule(d, 10); got != 20 {
		t.Fatalf("T_10 = %d, want 20", got)
	}
}

func TestBuildPlanValidation(t *testing.T) {
	for _, f := range []func(){
		func() { BuildPlan(FW, 12, 2) },
		func() { BuildPlan(FW, 16, 3) },
		func() { BuildPlan(FW, 4, 8) },
		func() { BuildPlan(FW, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestBuildPlanIsTiledPlan: BuildPlan and BuildTiledPlan build the
// same Figure 6 DAG, node for node, so the experiments that schedule
// the one (fig12, scaling) and replay the other (lemma31) run the same
// recursion.
func TestBuildPlanIsTiledPlan(t *testing.T) {
	for _, w := range []Workload{FW, GE, MM} {
		for _, ng := range [][2]int{{8, 1}, {32, 4}, {64, 8}, {256, 16}} {
			n, g := ng[0], ng[1]
			if !reflect.DeepEqual(BuildPlan(w, n, g), BuildTiledPlan(w, n, g).Plan) {
				t.Errorf("%v n=%d g=%d: BuildPlan differs from BuildTiledPlan's plan", w, n, g)
			}
		}
	}
}

func TestGEPruningShrinksPlan(t *testing.T) {
	// GE's Σ_G leaves ~1/3 of the update boxes empty; the plan must
	// contain strictly fewer leaves than FW's.
	countLeaves := func(p Plan) int {
		var rec func(Plan) int
		rec = func(p Plan) int {
			switch v := p.(type) {
			case nil:
				return 0
			case Leaf:
				return 1
			case Seq:
				n := 0
				for _, c := range v {
					n += rec(c)
				}
				return n
			case Par:
				n := 0
				for _, c := range v {
					n += rec(c)
				}
				return n
			}
			return 0
		}
		return rec(p)
	}
	fw := countLeaves(BuildPlan(FW, 64, 8))
	ge := countLeaves(BuildPlan(GE, 64, 8))
	if ge >= fw {
		t.Fatalf("GE leaves (%d) not below FW leaves (%d)", ge, fw)
	}
}
