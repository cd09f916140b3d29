package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"gep"
	"gep/internal/apsp"
	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/matrix"
	"gep/internal/serve"
)

// mulEmbedding is the update set that runs c += a·b as one in-place
// GEP over M = [[C, A], [B, 0]] of side 2n: ⟨i,j,k⟩ with i, j < n <= k,
// so c[i,k] = A[i,k−n], c[k,j] = B[k−n,j] and each C cell takes its
// products in ascending k — the G loop of matrix multiplication.
type mulEmbedding struct{ n int }

func (s mulEmbedding) Contains(i, j, k int) bool { return i < s.n && j < s.n && k >= s.n }

func (s mulEmbedding) Intersects(i1, _, j1, _, _, k2 int) bool {
	return i1 < s.n && j1 < s.n && k2 >= s.n
}

func (s mulEmbedding) JRange(i, k int) (lo, hi int) {
	if i < s.n && k >= s.n {
		return 0, s.n
	}
	return 0, 0
}

// gLoopMul is the multiply oracle: core.RunGEP with MulAdd's bare Func
// over the embedding, any side.
func gLoopMul(a, b *matrix.Dense[float64]) *matrix.Dense[float64] {
	n := a.N()
	m := matrix.NewSquare[float64](2 * n)
	m.Sub(0, n, n, n).CopyFrom(a)
	m.Sub(n, 0, n, n).CopyFrom(b)
	core.RunGEP[float64](m, core.MulAdd[float64]{}.Func(), mulEmbedding{n})
	return matrix.Crop(m, n)
}

// runJob submits spec to srv and returns the finished job's data,
// with null (non-finite) cells as +Inf.
func runJob(t *testing.T, srv *serve.Server, spec serve.Spec) []float64 {
	t.Helper()
	v, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("submit %s: %v", spec.Op, err)
	}
	for !v.Status.Terminal() {
		time.Sleep(time.Millisecond)
		v, _ = srv.Get(v.ID)
	}
	res, err := srv.ResultOf(v.ID)
	if err != nil {
		t.Fatalf("%s job: %v", spec.Op, err)
	}
	out := make([]float64, len(res.Data))
	for i, p := range res.Data {
		out[i] = math.Inf(1)
		if p != nil {
			out[i] = *p
		}
	}
	return out
}

// cells returns the leading n×n corner of m row-major.
func cells(m *matrix.Dense[float64], n int) []float64 {
	out := make([]float64, 0, n*n)
	for i := 0; i < n; i++ {
		out = append(out, m.Row(i)[:n]...)
	}
	return out
}

// cropFlat returns the leading n×n corner of a row-major p×p slice.
func cropFlat(data []float64, p, n int) []float64 {
	out := make([]float64, 0, n*n)
	for i := 0; i < n; i++ {
		out = append(out, data[i*p:i*p+n]...)
	}
	return out
}

// TestCrossEntryBitwise is the one-code-path check: for every op and
// size (100 runs padded to 128: by the entry itself for the facade's
// LU and APSP, by the caller for multiply and the power-of-two server
// jobs), each entry point — the facade serial
// and parallel, a gep-server job, the apsp.Solve path of cmd/apsp,
// gesolve -algo igep — produces the bits of the iterative loop G run
// with the op's bare Func (core.RunGEP). APSP weights are integers, so
// every G-equivalent schedule is exact as well.
func TestCrossEntryBitwise(t *testing.T) {
	srv := serve.New(serve.Config{MaxConcurrent: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	type entries map[string][]float64
	ops := map[string]func(t *testing.T, n, p int) (want []float64, got entries){
		"multiply": func(t *testing.T, n, p int) ([]float64, entries) {
			rng := rand.New(rand.NewSource(int64(n)))
			a, b := matrix.NewSquare[float64](n), matrix.NewSquare[float64](n)
			a.Apply(func(int, int, float64) float64 { return rng.Float64()*2 - 1 })
			b.Apply(func(int, int, float64) float64 { return rng.Float64()*2 - 1 })
			// Zero padding appends only +0 or −0 products after the last
			// real k, which leave every (nonzero) sum unchanged.
			ap, bp := matrix.PadPow2Diag(a, 0, 0), matrix.PadPow2Diag(b, 0, 0)
			got := entries{}
			c := gep.NewMatrix[float64](p)
			gep.Multiply(c, ap, bp)
			got["facade"] = cells(c, n)
			c = gep.NewMatrix[float64](p)
			gep.MultiplyParallel(c, ap, bp)
			got["facade-parallel"] = cells(c, n)
			got["serve"] = cropFlat(runJob(t, srv, serve.Spec{Op: "multiply", N: p,
				A: ap.Data(), B: bp.Data()}), p, n)
			return cells(gLoopMul(a, b), n), got
		},
		"lu": func(t *testing.T, n, p int) ([]float64, entries) {
			seed := int64(n)
			a, rhs, err := loadSystem(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := a.Clone()
			core.RunGEP[float64](want, core.LUFactor[float64]{}.Func(), core.LU{})
			got := entries{}
			f := a.Clone()
			gep.Factorize(f)
			got["facade"] = cells(f, n)
			f = a.Clone()
			gep.FactorizeParallel(f)
			got["facade-parallel"] = cells(f, n)
			// The job needs a power-of-two side. Identity padding leaves
			// the leading factors' updates, and their order, unchanged.
			ap := matrix.PadPow2Diag(a, 0, 1)
			got["serve"] = cropFlat(runJob(t, srv, serve.Spec{Op: "lu", N: p, Data: ap.Data()}), p, n)

			// The solution vector: facade Solve and gesolve, against
			// substitution from the oracle's factors.
			wantX := linalg.SolveLU(want, rhs)
			gotX := entries{"solve": gep.Solve(a.Clone(), rhs)}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-random", strconv.Itoa(n), "-seed", strconv.FormatInt(seed, 10),
				"-algo", "igep"}, &stdout, &stderr); code != 0 {
				t.Fatalf("gesolve exit %d: %s", code, stderr.String())
			}
			for _, field := range strings.Fields(stdout.String()) {
				v, err := strconv.ParseFloat(field, 64)
				if err != nil {
					t.Fatal(err)
				}
				gotX["gesolve"] = append(gotX["gesolve"], v)
			}
			for name, x := range gotX {
				sameBits(t, "x/"+name, wantX, x)
			}
			return cells(want, n), got
		},
		"apsp": func(t *testing.T, n, p int) ([]float64, entries) {
			g := apsp.Random(n, 0.25, 100, int64(n))
			d := g.DistanceMatrix()
			want := d.Clone()
			core.RunGEP[float64](want, core.MinPlus[float64]{}.Func(), core.Full{})
			got := entries{}
			f := d.Clone()
			gep.FloydWarshall(f)
			got["facade"] = cells(f, n)
			f = d.Clone()
			gep.FloydWarshallParallel(f)
			got["facade-parallel"] = cells(f, n)
			got["apsp.Solve"] = cells(apsp.Solve(g, 0), n)
			// The job encodes "no edge" as 0 off the diagonal.
			data := matrix.PadPow2Diag(d, apsp.Inf, 0).Data()
			for i, v := range data {
				if math.IsInf(v, 1) {
					data[i] = 0
				}
			}
			got["serve"] = cropFlat(runJob(t, srv, serve.Spec{Op: "apsp", N: p, Data: data}), p, n)
			return cells(want, n), got
		},
	}
	for _, op := range []string{"multiply", "lu", "apsp"} {
		for _, n := range []int{64, 100, 256} {
			p := n
			if !matrix.IsPow2(n) {
				p = matrix.NextPow2(n)
			}
			t.Run(fmt.Sprintf("%s/n=%d", op, n), func(t *testing.T) {
				want, got := ops[op](t, n, p)
				for name, cells := range got {
					sameBits(t, name, want, cells)
				}
			})
		}
	}
}

// sameBits fails unless got has want's length and bit patterns.
func sameBits(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v (bits differ)", label, i, got[i], want[i])
		}
	}
}
