package apsp

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/ooc"
	"gep/internal/par"
)

func exactEq(a, b *matrix.Dense[float64]) bool {
	return a.EqualFunc(b, func(x, y float64) bool { return x == y })
}

// bitEq compares on Float64bits: it tells −0 from +0 and matches NaNs.
func bitEq(a, b *matrix.Dense[float64]) bool {
	return a.EqualFunc(b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestFWVariantsMatchDijkstra is the cross-algorithm oracle check:
// every Floyd-Warshall variant — the iterative loops and the I-GEP
// engine at several base sizes, serial and parallel — must agree
// exactly (integer weights) with all-pairs Dijkstra.
func TestFWVariantsMatchDijkstra(t *testing.T) {
	for _, n := range []int{1, 2, 8, 16, 32, 64} {
		for _, p := range []float64{0.05, 0.3, 0.9} {
			g := Random(n, p, 100, int64(n*100)+int64(p*10))
			want := AllPairsDijkstra(g)

			variants := map[string]func(d *matrix.Dense[float64]){
				"gep":      FWGEP,
				"gep-pure": FWGEPPure,
				"igep1":    func(d *matrix.Dense[float64]) { FWFused(d, 1) },
				"igep2":    func(d *matrix.Dense[float64]) { FWFused(d, 2) },
				"igep8":    func(d *matrix.Dense[float64]) { FWFused(d, 8) },
				"igep64":   func(d *matrix.Dense[float64]) { FWFused(d, 64) },
				"par":      func(d *matrix.Dense[float64]) { FWFused(d, 4, core.WithParallel[float64](8)) },
			}
			for name, fw := range variants {
				d := g.DistanceMatrix()
				fw(d)
				if !exactEq(want, d) {
					t.Fatalf("%s n=%d p=%.2f: differs from Dijkstra oracle", name, n, p)
				}
			}
		}
	}
}

// TestSolvePadsNonPow2 verifies the public padding path.
func TestSolvePadsNonPow2(t *testing.T) {
	for _, n := range []int{3, 5, 7, 12, 33} {
		g := Random(n, 0.4, 50, int64(n))
		want := AllPairsDijkstra(g)
		got := Solve(g, 4)
		if !exactEq(want, got) {
			t.Fatalf("n=%d: padded Solve differs from oracle", n)
		}
	}
}

func TestFWNegativeEdges(t *testing.T) {
	// Floyd-Warshall handles negative edges (no negative cycles);
	// compare I-GEP against the iterative reference directly.
	g := NewGraph(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, -2)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 10)
	g.AddEdge(3, 0, 2)
	want := g.DistanceMatrix()
	FWGEP(want)
	got := g.DistanceMatrix()
	FWFused(got, 2)
	if !exactEq(want, got) {
		t.Fatal("negative-edge I-GEP differs from iterative FW")
	}
	if want.At(0, 3) != 4 { // 0→1→2→3 = 5-2+1
		t.Fatalf("d(0,3) = %g, want 4", want.At(0, 3))
	}
}

func TestDijkstraSimple(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 3)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 2)
	g.AddEdge(2, 3, 8)
	d := Dijkstra(g, 0)
	want := []float64{0, 7, 3, 9, Inf}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("d[%d] = %g, want %g", i, d[i], w)
		}
	}
}

func TestBinHeapSortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	h := &binHeap{}
	var vals []float64
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 100
		vals = append(vals, v)
		h.push(heapItem{i, v})
	}
	sort.Float64s(vals)
	for i, want := range vals {
		got := h.pop().dist
		if got != want {
			t.Fatalf("pop %d = %g, want %g", i, got, want)
		}
	}
	if h.len() != 0 {
		t.Fatal("heap not empty")
	}
}

func TestPathReconstruction(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		g := Random(n, 0.3, 20, int64(n))
		d := Solve(g, 4)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				path := Path(g, d, u, v)
				if d.At(u, v) == Inf {
					if path != nil {
						t.Fatalf("path for unreachable (%d,%d)", u, v)
					}
					continue
				}
				if path == nil {
					t.Fatalf("no path found for reachable (%d,%d)", u, v)
				}
				if path[0] != u || path[len(path)-1] != v {
					t.Fatalf("path endpoints wrong: %v for (%d,%d)", path, u, v)
				}
				if w := g.PathWeight(path); w != d.At(u, v) {
					t.Fatalf("path weight %g != distance %g for (%d,%d)", w, d.At(u, v), u, v)
				}
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := Random(10, 0.4, 30, 99)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.Edges() != g.Edges() {
		t.Fatalf("round trip lost structure: %d/%d vs %d/%d", g2.N, g2.Edges(), g.N, g.Edges())
	}
	if !exactEq(g.DistanceMatrix(), g2.DistanceMatrix()) {
		t.Fatal("round trip changed distances")
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	for _, in := range []string{
		"",               // no header
		"2 1\n5 0 1.0\n", // vertex out of range
		"2 2\n0 1 1.0\n", // truncated
		"-1 0\n",         // negative n
	} {
		if _, err := ParseEdgeList(bytes.NewBufferString(in)); err == nil {
			t.Fatalf("ParseEdgeList(%q) accepted bad input", in)
		}
	}
}

func TestDistanceMatrixParallelEdges(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 9)
	g.AddEdge(0, 1, 3)
	g.AddEdge(0, 1, 7)
	if d := g.DistanceMatrix(); d.At(0, 1) != 3 {
		t.Fatalf("parallel edges: got %g, want 3", d.At(0, 1))
	}
}

// TestFWParallelBitwiseMatchesSerial: forking, on the default runtime
// or on a runtime of its own, changes only scheduling, never values;
// and at a side other than a power of two FWFused gives the bits of
// the explicit pad, run and crop.
func TestFWParallelBitwiseMatchesSerial(t *testing.T) {
	rt := par.NewRuntime(2)
	defer rt.Close()
	for _, n := range []int{64, 100} {
		g := Random(n, 0.2, 100, 5)
		padded := matrix.PadPow2Diag(g.DistanceMatrix(), Inf, 0)
		FWFused(padded, 8)
		want := matrix.Crop(padded, n)
		for name, opts := range map[string][]core.Option[float64]{
			"serial":   nil,
			"parallel": {core.WithParallel[float64](16)},
			"runtime":  {core.WithParallel[float64](16), core.WithRuntime[float64](rt)},
		} {
			got := g.DistanceMatrix()
			FWFused(got, 8, opts...)
			if !bitEq(want, got) {
				t.Fatalf("n=%d %s: FW differs from the padded serial run", n, name)
			}
		}
	}
}

// TestFWIGEPTiledMatchesOracle runs I-GEP Floyd-Warshall over the
// bit-interleaved (Morton-tiled) layout with tile side = base — the
// tile-granular engine of internal/ooc, whose base case is one tile —
// and checks it against all-pairs Dijkstra at several tile sides.
func TestFWIGEPTiledMatchesOracle(t *testing.T) {
	for _, n := range []int{4, 16, 64} {
		for _, base := range []int{2, 8, 64} {
			if base > n {
				continue
			}
			g := Random(n, 0.3, 100, int64(n+base))
			want := AllPairsDijkstra(g)
			s, err := ooc.Create(t.TempDir(), ooc.Config{PageSize: 512, CacheSize: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			m := ooc.NewMatrix(s, n, 0, ooc.MortonTiledLayout(base))
			if err := m.LoadTiles(g.DistanceMatrix()); err != nil {
				t.Fatal(err)
			}
			if err := ooc.RunIGEP(m, core.MinPlus[float64]{}, core.Full{}, ooc.RunOptions{}); err != nil {
				t.Fatal(err)
			}
			d, err := m.Unload()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if !exactEq(want, d) {
				t.Fatalf("n=%d base=%d: tiled FW differs from oracle", n, base)
			}
		}
	}
}

// bruteReach is an independent BFS-based reachability oracle.
func bruteReach(g *Graph) *matrix.Dense[bool] {
	r := matrix.NewSquare[bool](g.N)
	for s := 0; s < g.N; s++ {
		seen := make([]bool, g.N)
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Adj[u] {
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
		for v, ok := range seen {
			r.Set(s, v, ok)
		}
	}
	return r
}

func TestTransitiveClosureMatchesBFS(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33, 64} {
		g := Random(n, 2.5/float64(n+1), 10, int64(n*3))
		want := bruteReach(g)
		got := g.Reachability()
		if !matrix.Equal(want, got) {
			t.Fatalf("n=%d: closure differs from BFS oracle", n)
		}
	}
}

func TestTransitiveClosureEmpty(t *testing.T) {
	r := matrix.NewSquare[bool](0)
	TransitiveClosure(r) // must not panic
}

// randNegGraph returns a random graph with some negative edges but no
// negative cycles (weights shifted by vertex potentials, which
// preserves cycle weights as non-negative).
func randNegGraph(n int, p float64, seed int64) *Graph {
	base := Random(n, p, 20, seed)
	rng := rand.New(rand.NewSource(seed + 99))
	pot := make([]float64, n)
	for i := range pot {
		pot[i] = float64(rng.Intn(30))
	}
	g := NewGraph(n)
	for _, es := range base.Adj {
		for _, e := range es {
			// w' = w + pot[u] - pot[v]: can be negative, cycles keep
			// their (positive) total weight.
			g.AddEdge(e.From, e.To, e.Weight+pot[e.From]-pot[e.To])
		}
	}
	return g
}

func TestBellmanFordMatchesDijkstraNonNegative(t *testing.T) {
	g := Random(40, 0.2, 50, 7)
	for src := 0; src < 10; src++ {
		bf, err := BellmanFord(g, src)
		if err != nil {
			t.Fatal(err)
		}
		dj := Dijkstra(g, src)
		for v := range bf {
			if bf[v] != dj[v] {
				t.Fatalf("src=%d v=%d: BF %g vs Dijkstra %g", src, v, bf[v], dj[v])
			}
		}
	}
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, -3)
	g.AddEdge(2, 1, 1)
	if _, err := BellmanFord(g, 0); err == nil {
		t.Fatal("negative cycle not detected")
	}
	if !HasNegativeCycle(g) {
		t.Fatal("HasNegativeCycle false")
	}
}

// TestFWMatchesJohnsonNegativeWeights: the Floyd-Warshall variants vs
// Johnson's algorithm on graphs with negative edges — an oracle check
// plain Dijkstra cannot provide.
func TestFWMatchesJohnsonNegativeWeights(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		g := randNegGraph(n, 0.3, int64(n))
		want, err := Johnson(g)
		if err != nil {
			t.Fatal(err)
		}
		for name, fw := range map[string]func(d *matrix.Dense[float64]){
			"gep":  FWGEP,
			"igep": func(d *matrix.Dense[float64]) { FWFused(d, 4) },
			"par":  func(d *matrix.Dense[float64]) { FWFused(d, 8, core.WithParallel[float64](8)) },
		} {
			d := g.DistanceMatrix()
			fw(d)
			if !exactEq(want, d) {
				t.Fatalf("%s n=%d: differs from Johnson on negative weights", name, n)
			}
		}
	}
}

func TestJohnsonHandlesUnreachable(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, -2)
	d, err := Johnson(g)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(0, 1) != -2 || d.At(1, 0) != Inf || d.At(2, 0) != Inf {
		t.Fatalf("unexpected distances: %v", d)
	}
}

// bruteSCC computes components via the BFS oracle.
func bruteSCC(g *Graph) []int {
	r := bruteReach(g)
	n := g.N
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for u := 0; u < n; u++ {
		if comp[u] >= 0 {
			continue
		}
		comp[u] = next
		for v := u + 1; v < n; v++ {
			if comp[v] < 0 && r.At(u, v) && r.At(v, u) {
				comp[v] = next
			}
		}
		next++
	}
	return comp
}

func TestSCCMatchesBFSOracle(t *testing.T) {
	for _, n := range []int{1, 5, 16, 40} {
		g := Random(n, 2.0/float64(n+1), 5, int64(n*7))
		want := bruteSCC(g)
		got := g.SCC()
		if len(got) != len(want) {
			t.Fatalf("n=%d: SCC length mismatch", n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: comp[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestSCCKnownCycle(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1) // cycle {0,1,2}
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	comp := g.SCC()
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("cycle not merged: %v", comp)
	}
	if comp[3] == comp[0] || comp[4] == comp[3] {
		t.Fatalf("chain merged wrongly: %v", comp)
	}
	nComp, edges := g.CondensationDAG()
	if nComp != 3 {
		t.Fatalf("condensation has %d components, want 3", nComp)
	}
	if len(edges) != 2 {
		t.Fatalf("condensation has %d edges, want 2: %v", len(edges), edges)
	}
}

func TestEccentricityDiameterRadius(t *testing.T) {
	// Path graph 0->1->2 with unit weights (directed both ways).
	g := NewGraph(3)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		g.AddEdge(e[0], e[1], 1)
	}
	d := Solve(g, 2)
	ecc := Eccentricities(d)
	want := []float64{2, 1, 2}
	for i := range want {
		if ecc[i] != want[i] {
			t.Fatalf("ecc[%d] = %g, want %g", i, ecc[i], want[i])
		}
	}
	diam, rad := DiameterRadius(d)
	if diam != 2 || rad != 1 {
		t.Fatalf("diameter/radius = %g/%g, want 2/1", diam, rad)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := NewGraph(2) // no edges
	d := Solve(g, 2)
	diam, rad := DiameterRadius(d)
	if diam != Inf || rad != Inf {
		t.Fatalf("disconnected: %g/%g, want Inf/Inf", diam, rad)
	}
}
