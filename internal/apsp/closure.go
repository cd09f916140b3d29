package apsp

import (
	"gep/internal/core"
	"gep/internal/matrix"
)

// Transitive closure (Warshall's algorithm): the boolean-semiring
// instance of GEP with f = x ∨ (u ∧ v), another computation the
// paradigm covers directly.

// TransitiveClosure computes reachability in place: reach[i][j] must
// initially hold edge presence (the diagonal is forced true). Any side
// length is accepted; the computation is cache-oblivious and runs the
// fused core.Closure kernel (base cases skip whole rows whose c[i,k] is
// false instead of calling the update per element) through the I-GEP
// recursion (RunIGEP). Without options it runs F's order serially;
// core.WithParallel runs and forks the Figure-6 schedule and
// core.WithRuntime confines the forks to one runtime, with the same
// output bits.
func TransitiveClosure(reach *matrix.Dense[bool], opts ...core.Option[bool]) {
	for i := 0; i < reach.N(); i++ {
		reach.Set(i, i, true)
	}
	matrix.OnPow2(reach, false, true, func(m *matrix.Dense[bool]) {
		core.RunIGEP[bool](m, core.Closure{}, core.Full{}, opts...)
	})
}

// Reachability returns the closure matrix of g without modifying it.
func (g *Graph) Reachability() *matrix.Dense[bool] {
	r := matrix.NewSquare[bool](g.N)
	for _, es := range g.Adj {
		for _, e := range es {
			r.Set(e.From, e.To, true)
		}
	}
	TransitiveClosure(r)
	return r
}
