package apsp

import (
	"fmt"

	"gep/internal/core"
	"gep/internal/matrix"
)

// Packed transitive closure: the same boolean-semiring GEP instance as
// TransitiveClosure, run over a bit-packed matrix (64 cells per word).
// The engine is identical — RunIGEP with the core.Closure op — but
// the base cases dispatch to the word-parallel OR kernels and the
// four-Russians table kernel of internal/core/bits.go, so the closure
// runs at ~64 cells per instruction plus the table gain. The
// result is bit-for-bit equal to the unpacked path (asserted by the
// differential and fuzz tests in packed_test.go).

// TransitiveClosurePacked computes reachability in place over a packed
// boolean matrix: reach[i][j] must initially hold edge presence (the
// diagonal is forced true). Any side length is accepted; a side that
// is not a power of two runs padded, with the padded diagonal forced
// in the same pass, and is copied back through a Sub view. The options are
// the engine's: core.WithTableWidth sets the four-Russians group width
// (default 8, 0 = word kernel only), and core.WithParallel forks over
// a word-aligned reach (matrix.Bits.Aligned — true for any matrix from
// NewBits, false only for mid-word sub-views), with output
// bit-identical to the serial packed and unpacked paths.
func TransitiveClosurePacked(reach *matrix.Bits, opts ...core.Option[bool]) {
	n := reach.N()
	for i := 0; i < n; i++ {
		reach.Set(i, i, true)
	}
	run := func(m *matrix.Bits) { core.RunIGEP[bool](m, core.Closure{}, core.Full{}, opts...) }
	if n == 0 || matrix.IsPow2(n) {
		run(reach)
		return
	}
	p := matrix.PadBitsPow2(reach, false)
	for i := n; i < p.N(); i++ {
		p.Set(i, i, true)
	}
	run(p)
	reach.CopyFrom(p.Sub(0, 0, n, n))
}

// ReachabilityPacked returns the closure matrix of g in packed form
// without modifying g.
func (g *Graph) ReachabilityPacked() *matrix.Bits {
	if g.N < 0 {
		panic(fmt.Sprintf("apsp: negative vertex count %d", g.N))
	}
	r := matrix.NewBitsSquare(g.N)
	for _, es := range g.Adj {
		for _, e := range es {
			r.Set(e.From, e.To, true)
		}
	}
	TransitiveClosurePacked(r)
	return r
}
