package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gep/internal/matrix"
)

// Oracles. Outputs are captured during the timed phase and checked after
// it: the first output of each (op, input) pair is kept whole and checked
// by the op's oracle; every output, that one included, is reduced to a
// digest that must equal the checked one's (the engines are
// deterministic, so equal inputs must give equal bits). A mismatch fails
// that op and the run goes on.

// verifier collects outputs by (op, input) group.
type verifier struct {
	groups map[string]*group
	order  []string
}

type group struct {
	class   string
	input   int
	out     []float64             // the reference output, kept whole
	check   func([]float64) error // the oracle over out
	ref     uint64                // the reference output's digest
	digests []uint64              // one per op instance
}

func newVerifier() *verifier { return &verifier{groups: map[string]*group{}} }

// add records one op output. The first output added with a non-nil out
// becomes the group's reference: out is called once to keep it, and
// check is its oracle. Later outputs need only their digest.
func (v *verifier) add(class string, input int, digest uint64, out func() []float64, check func([]float64) error) {
	key := fmt.Sprintf("%s/%d", class, input)
	g := v.groups[key]
	if g == nil {
		g = &group{class: class, input: input}
		v.groups[key] = g
		v.order = append(v.order, key)
	}
	if g.check == nil && out != nil {
		g.out, g.check, g.ref = out(), check, digest
	}
	g.digests = append(g.digests, digest)
}

// reference returns the digest of a group's reference output.
func (v *verifier) reference(class string, input int) (uint64, bool) {
	g := v.groups[fmt.Sprintf("%s/%d", class, input)]
	if g == nil {
		return 0, false
	}
	return g.ref, true
}

// verify runs every oracle and records a failure for each op instance
// whose group fails its oracle or whose digest differs from the
// reference. corrupt perturbs each reference output first.
func (v *verifier) verify(r *report, corrupt bool) {
	for _, key := range v.order {
		g := v.groups[key]
		err := errors.New("no output of this group was kept for its oracle")
		if g.check != nil {
			if corrupt {
				perturb(g.out)
			}
			err = g.check(g.out)
		}
		for i, d := range g.digests {
			switch {
			case err != nil:
				r.fail("%s input %d #%d: %v", g.class, g.input, i, err)
			case d != g.ref:
				r.fail("%s input %d #%d: digest %016x differs from the checked output's %016x", g.class, g.input, i, d, g.ref)
			}
		}
	}
}

// perturb changes every entry of out, so that the oracles that check
// only sampled rows must notice too.
func perturb(out []float64) {
	for i, x := range out {
		if math.IsInf(x, 0) {
			out[i] = 1
		} else {
			out[i] = x + 1
		}
	}
}

// digest is a 64-bit hash of a float slice's bits.
func digest(xs []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range xs {
		h ^= math.Float64bits(x)
		h *= 1099511628211
		h ^= h >> 29
	}
	return h
}

// digestBytes hashes raw bytes the same way.
func digestBytes(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// flat returns m's cells row by row.
func flat(m *matrix.Dense[float64]) []float64 {
	n := m.N()
	out := make([]float64, 0, n*n)
	for i := 0; i < n; i++ {
		out = append(out, m.Row(i)...)
	}
	return out
}

const eps = 0x1p-52

// checkProduct is Freivalds' test of c = a·b (row-major n×n slices):
// for random ±1 vectors r, c·r must match a·(b·r) within the rounding
// bound of the two products.
func checkProduct(a, b, c []float64, n int, rng *rand.Rand) error {
	for round := 0; round < 2; round++ {
		r := make([]float64, n)
		for i := range r {
			r[i] = float64(2*rng.Intn(2) - 1)
		}
		br, babs := matVec(b, r, n), matVecAbs(b, r, n)
		abr, bound := matVec(a, br, n), matVecAbs(a, babs, n)
		cr := matVec(c, r, n)
		for i := 0; i < n; i++ {
			if d := math.Abs(cr[i] - abr[i]); !(d <= 4*float64(n)*eps*bound[i]+1e-300) {
				return fmt.Errorf("Freivalds row %d: |C·r − A·(B·r)| = %g, bound %g", i, d, 4*float64(n)*eps*bound[i])
			}
		}
	}
	return nil
}

// checkLUFactors checks packed pivot-free factors of a (unit lower L
// strictly below the diagonal, U on and above): L·(U·x) against A·x for
// a random x, within the rounding bound of the factorization.
func checkLUFactors(a, lu []float64, n int, rng *rand.Rand) error {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	ux, uabs := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		s, t := 0.0, 0.0
		for j := i; j < n; j++ {
			s += lu[i*n+j] * x[j]
			t += math.Abs(lu[i*n+j] * x[j])
		}
		ux[i], uabs[i] = s, t
	}
	ax, aabs := matVec(a, x, n), matVecAbs(a, x, n)
	for i := 0; i < n; i++ {
		s, t := ux[i], uabs[i]
		for j := 0; j < i; j++ {
			s += lu[i*n+j] * ux[j]
			t += math.Abs(lu[i*n+j]) * uabs[j]
		}
		if d := math.Abs(s - ax[i]); !(d <= 8*float64(n)*eps*(t+aabs[i])+1e-300) {
			return fmt.Errorf("L·(U·x) row %d differs from A·x by %g (bound %g)", i, d, 8*float64(n)*eps*(t+aabs[i]))
		}
	}
	return nil
}

// checkSolve bounds the normwise backward error of x as a solution of
// a·x = b: ‖a·x − b‖∞ ≤ 64·n·ε·(‖a‖∞‖x‖∞ + ‖b‖∞).
func checkSolve(a, x, b []float64, n int) error {
	if len(x) != n {
		return fmt.Errorf("solution has %d entries, want %d", len(x), n)
	}
	anorm, xnorm, bnorm, res := 0.0, 0.0, 0.0, 0.0
	ax := matVec(a, x, n)
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			row += math.Abs(a[i*n+j])
		}
		anorm = math.Max(anorm, row)
		xnorm = math.Max(xnorm, math.Abs(x[i]))
		bnorm = math.Max(bnorm, math.Abs(b[i]))
		if d := math.Abs(ax[i] - b[i]); !(d <= res) {
			res = d
		}
	}
	if bound := 64 * float64(n) * eps * (anorm*xnorm + bnorm); !(res <= bound) {
		return fmt.Errorf("residual ‖Ax−b‖∞ = %g exceeds %g", res, bound)
	}
	return nil
}

// checkDistanceRows compares rows of the all-pairs distance matrix d
// with Dijkstra from the given sources over the edge-weight matrix w
// (+Inf = no edge): they must match exactly, unreachable included.
func checkDistanceRows(w, d []float64, n int, sources []int) error {
	for _, s := range sources {
		want := dijkstra(w, n, s)
		for j := 0; j < n; j++ {
			if got := d[s*n+j]; got != want[j] && !(math.IsInf(got, 1) && math.IsInf(want[j], 1)) {
				return fmt.Errorf("distance (%d,%d) = %g, Dijkstra gives %g", s, j, got, want[j])
			}
		}
	}
	return nil
}

// dijkstra is an O(n²) array Dijkstra over a dense weight matrix; the
// diagonal of w is ignored (distance to self is 0).
func dijkstra(w []float64, n, src int) []float64 {
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		u := -1
		for i := 0; i < n; i++ {
			if !done[i] && !math.IsInf(dist[i], 1) && (u < 0 || dist[i] < dist[u]) {
				u = i
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for v := 0; v < n; v++ {
			if v != u && !math.IsInf(w[u*n+v], 1) {
				if nd := dist[u] + w[u*n+v]; nd < dist[v] {
					dist[v] = nd
				}
			}
		}
	}
}

// checkClosureRows compares rows of the reflexive transitive closure
// reach (1 = reachable, every vertex reaching itself; 0 = not) with a
// BFS from each source over the adjacency matrix adj (nonzero = edge).
func checkClosureRows(adj, reach []float64, n int, sources []int) error {
	for _, s := range sources {
		seen := make([]bool, n)
		seen[s] = true
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for j := 0; j < n; j++ {
				if adj[u*n+j] != 0 && !seen[j] {
					seen[j] = true
					queue = append(queue, j)
				}
			}
		}
		for j := 0; j < n; j++ {
			want := 0.0
			if seen[j] {
				want = 1
			}
			if reach[s*n+j] != want {
				return fmt.Errorf("reach (%d,%d) = %g, BFS gives %g", s, j, reach[s*n+j], want)
			}
		}
	}
	return nil
}

// checkDigest is the resume oracle: the resumed output must be the
// uninterrupted run's, bit for bit.
func checkDigest(want uint64, ok bool) func([]float64) error {
	return func(out []float64) error {
		if !ok {
			return errors.New("no uninterrupted run of this input to compare with")
		}
		if got := digest(out); got != want {
			return fmt.Errorf("digest %016x, uninterrupted run %016x", got, want)
		}
		return nil
	}
}

// sampleSources picks k distinct sources in [0, n).
func sampleSources(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	s := rng.Perm(n)[:k]
	sort.Ints(s)
	return s
}

func matVec(a, x []float64, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j, v := range a[i*n : (i+1)*n] {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

func matVecAbs(a, x []float64, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j, v := range a[i*n : (i+1)*n] {
			s += math.Abs(v * x[j])
		}
		out[i] = s
	}
	return out
}
