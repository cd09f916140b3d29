package sched

import "fmt"

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Plan is the task-structure AST of a recursion: a Leaf of weighted
// work, a Seq of phases, or a Par of independent branches.
type Plan interface{ isPlan() }

// Leaf is a base-case block costing Work units (one unit = one
// update).
type Leaf struct{ Work int64 }

// Seq runs its children one after another.
type Seq []Plan

// Par runs its children independently.
type Par []Plan

func (Leaf) isPlan() {}
func (Seq) isPlan()  {}
func (Par) isPlan()  {}

// Workload selects the update set whose work profile the plan models.
type Workload int

const (
	// FW is Floyd-Warshall: the full update set over the A recursion.
	FW Workload = iota
	// GE is Gaussian elimination without pivoting: the {k<i, k<j} set
	// over the A recursion (many pruned subproblems).
	GE
	// MM is matrix multiplication: the full set over the all-D
	// disjoint recursion with span O(n).
	MM
)

// String returns the workload's short name as used in figures and
// reports.
func (w Workload) String() string {
	switch w {
	case FW:
		return "FW"
	case GE:
		return "GE"
	case MM:
		return "MM"
	}
	return fmt.Sprintf("Workload(%d)", int(w))
}

// blockWork counts the updates of the workload's Σ_G inside the box
// [xi,xi+s) × [xj,xj+s) × [k0,k0+s).
func blockWork(w Workload, xi, xj, k0, s int) int64 {
	switch w {
	case FW, MM:
		return int64(s) * int64(s) * int64(s)
	case GE:
		var total int64
		for k := k0; k < k0+s; k++ {
			rows := xi + s - maxInt(xi, k+1)
			if rows < 0 {
				rows = 0
			}
			cols := xj + s - maxInt(xj, k+1)
			if cols < 0 {
				cols = 0
			}
			total += int64(rows) * int64(cols)
		}
		return total
	}
	panic("sched: unknown workload")
}

// BuildPlan constructs the recursion plan for an n×n problem with
// base-case (grain) side g. n and g must be powers of two with g <= n.
func BuildPlan(w Workload, n, g int) Plan {
	return newTileBuilder("BuildPlan", w, n, g, false).plan()
}

// compactSeq drops nil (pruned) children and unwraps singleton groups.
func compactSeq(steps []Plan) Plan {
	out := make(Seq, 0, len(steps))
	for _, s := range steps {
		if p := compact(s); p != nil {
			out = append(out, p)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

func compact(p Plan) Plan {
	switch v := p.(type) {
	case nil:
		return nil
	case Par:
		out := make(Par, 0, len(v))
		for _, c := range v {
			if cc := compact(c); cc != nil {
				out = append(out, cc)
			}
		}
		switch len(out) {
		case 0:
			return nil
		case 1:
			return out[0]
		}
		return out
	default:
		return p
	}
}

// TotalWork is T_1: the summed leaf work of the plan.
func TotalWork(p Plan) int64 {
	switch v := p.(type) {
	case nil:
		return 0
	case Leaf:
		return v.Work
	case Seq:
		var t int64
		for _, c := range v {
			t += TotalWork(c)
		}
		return t
	case Par:
		var t int64
		for _, c := range v {
			t += TotalWork(c)
		}
		return t
	}
	panic("sched: unknown plan node")
}

// Span is T_inf: the critical-path work of the plan.
func Span(p Plan) int64 {
	switch v := p.(type) {
	case nil:
		return 0
	case Leaf:
		return v.Work
	case Seq:
		var t int64
		for _, c := range v {
			t += Span(c)
		}
		return t
	case Par:
		var m int64
		for _, c := range v {
			if s := Span(c); s > m {
				m = s
			}
		}
		return m
	}
	panic("sched: unknown plan node")
}
