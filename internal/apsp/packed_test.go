package apsp

import (
	"fmt"
	"math/rand"
	"testing"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/par"
)

// randReach returns a random edge-presence matrix (no forced
// diagonal; the closure entry points force it themselves).
func randReach(rng *rand.Rand, n int, density int) *matrix.Dense[bool] {
	r := matrix.NewSquare[bool](n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(100) < density {
				r.Set(i, j, true)
			}
		}
	}
	return r
}

// TestClosureParallelVsSerial: the forking closure must be
// bit-identical to the serial closure at every worker count and on a
// runtime of its own, including non-power-of-two sides through the
// padded path.
func TestClosureParallelVsSerial(t *testing.T) {
	defer par.ResetWorkers()
	rt := par.NewRuntime(2)
	defer rt.Close()
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{1, 7, 64, 100, 128} {
		want := randReach(rng, n, 8)
		src := want.Clone()
		TransitiveClosure(want)
		check := func(label string, opts ...core.Option[bool]) {
			got := src.Clone()
			TransitiveClosure(got, opts...)
			if !matrix.Equal(want, got) {
				t.Fatalf("n=%d %s: parallel closure differs from serial", n, label)
			}
		}
		for _, p := range []int{1, 2, 4} {
			par.SetWorkers(p)
			check(fmt.Sprintf("p=%d", p), core.WithParallel[bool](64))
		}
		check("own runtime", core.WithParallel[bool](64), core.WithRuntime[bool](rt))
	}
}

// TestPackedClosureVsBool: the packed closures (serial, parallel, with
// and without the four-Russians kernel) must equal the bool path
// bit-for-bit, including non-power-of-two sides.
func TestPackedClosureVsBool(t *testing.T) {
	defer par.ResetWorkers()
	rng := rand.New(rand.NewSource(82))
	for _, n := range []int{1, 2, 13, 64, 100, 128, 200} {
		src := randReach(rng, n, 6)
		want := src.Clone()
		TransitiveClosure(want)
		for _, tw := range []int{8, 0, 4} {
			got := matrix.PackBool(src)
			TransitiveClosurePacked(got, core.WithTableWidth[bool](tw))
			if !matrix.Equal(want, matrix.UnpackBool(got)) {
				t.Fatalf("n=%d tw=%d: packed closure differs from bool closure", n, tw)
			}
		}
		for _, p := range []int{1, 2, 4} {
			par.SetWorkers(p)
			got := matrix.PackBool(src)
			TransitiveClosurePacked(got, core.WithParallel[bool](64))
			if !matrix.Equal(want, matrix.UnpackBool(got)) {
				t.Fatalf("n=%d p=%d: parallel packed closure differs from bool closure", n, p)
			}
		}
	}
}

// TestPackedClosureUnalignedView runs the serial packed closure on a
// mid-word square view and checks both the result and that cells
// outside the view are untouched.
func TestPackedClosureUnalignedView(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const n, off = 65, 9
	src := randReach(rng, n, 6)
	want := src.Clone()
	TransitiveClosure(want)
	parent := matrix.NewBits(n, n+off+5)
	parent.Fill(true)
	v := parent.Sub(0, off, n, n)
	v.CopyFrom(matrix.PackBool(src))
	TransitiveClosurePacked(v)
	if !matrix.Equal(want, matrix.UnpackBool(v)) {
		t.Fatal("packed closure on unaligned view differs from bool closure")
	}
	for i := 0; i < n; i++ {
		for _, j := range []int{0, off - 1, n + off, parent.Cols() - 1} {
			if !parent.At(i, j) {
				t.Fatalf("cell (%d,%d) outside the view was clobbered", i, j)
			}
		}
	}
}

// TestClosureParallelPackedRejectsUnaligned pins the alignment
// contract of forking over a packed matrix.
func TestClosureParallelPackedRejectsUnaligned(t *testing.T) {
	parent := matrix.NewBits(8, 16)
	v := parent.Sub(0, 3, 8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("parallel packed closure accepted an unaligned view")
		}
	}()
	TransitiveClosurePacked(v, core.WithParallel[bool](64))
}

// TestReachabilityPackedMatchesBool compares the packed graph entry
// point against Reachability on random graphs.
func TestReachabilityPackedMatchesBool(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := Random(50, 0.05, 10, seed)
		want := g.Reachability()
		got := g.ReachabilityPacked()
		if !matrix.Equal(want, matrix.UnpackBool(got)) {
			t.Fatalf("seed %d: ReachabilityPacked differs from Reachability", seed)
		}
	}
}

// FuzzBitsVsBool fuzzes random edge sets through the packed and bool
// closure paths and requires exact equality — the bit-packed engine's
// end-to-end differential oracle.
func FuzzBitsVsBool(fz *testing.F) {
	fz.Add([]byte{3, 0x80, 0x01})
	fz.Add([]byte{65, 0xFF, 0x00, 0xAA, 0x55})
	fz.Add([]byte{0})
	fz.Add([]byte{130, 0x10, 0x20, 0x40, 0x80, 0x01})
	fz.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// First byte picks the side (0..160); the rest is an edge
		// bitstream, wrapping when short.
		n := int(data[0]) % 161
		data = data[1:]
		src := matrix.NewSquare[bool](n)
		if len(data) > 0 {
			bit := 0
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					b := data[(bit/8)%len(data)]
					if b>>(bit%8)&1 == 1 {
						src.Set(i, j, true)
					}
					bit++
				}
			}
		}
		want := src.Clone()
		TransitiveClosure(want)
		for _, tw := range []int{0, 8} {
			got := matrix.PackBool(src)
			TransitiveClosurePacked(got, core.WithTableWidth[bool](tw))
			if !matrix.Equal(want, matrix.UnpackBool(got)) {
				t.Fatalf("n=%d tw=%d: packed closure diverged from bool closure", n, tw)
			}
		}
	})
}
