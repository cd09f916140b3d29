package dp

import (
	"math/rand"
	"testing"
)

// TestAlignQuadrantSerial checks the quadrant-split path against the
// iterative solver — the path the thin binary splits used to cover is
// now reached only for thin blocks.
func TestAlignQuadrantSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	n, m := 30, 30
	x, y := randomSeqs(rng, n, m)
	g := GapCosts{
		Sub:  subCost(x, y),
		GapX: func(p, i int) float64 { return 5 + 0.5*float64(i-p) },
		GapY: func(q, j int) float64 { return 2 + 2.5*float64(j-q) },
	}
	want := AlignIterative(n, m, g)
	for _, block := range []int{1, 2, 5, 16} {
		got := AlignCacheOblivious(n, m, g, block)
		for i := 0; i <= n; i++ {
			for j := 0; j <= m; j++ {
				if want.At(i, j) != got.At(i, j) {
					t.Fatalf("block=%d: D[%d][%d] = %g, want %g", block, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestTracebackRecoversOptimalAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, sh := range [][2]int{{8, 8}, {15, 22}, {30, 30}} {
		n, m := sh[0], sh[1]
		x, y := randomSeqs(rng, n, m)
		g := GapCosts{
			Sub:  subCost(x, y),
			GapX: func(p, i int) float64 { return 4 + float64(i-p) },
			GapY: func(q, j int) float64 { return 4 + float64(j-q) },
		}
		d := AlignCacheOblivious(n, m, g, 8)
		ops := Traceback(d, n, m, g)
		if ops == nil {
			t.Fatalf("%dx%d: no traceback found", n, m)
		}
		if !OpsCoverSequences(ops, n, m) {
			t.Fatalf("%dx%d: traceback does not cover the sequences: %v", n, m, ops)
		}
		if cost := OpsCost(ops, g); cost != d.At(n, m) {
			t.Fatalf("%dx%d: traceback cost %g != optimal %g", n, m, cost, d.At(n, m))
		}
	}
}

func TestTracebackEmpty(t *testing.T) {
	g := GapCosts{
		Sub:  func(i, j int) float64 { return 0 },
		GapX: func(p, i int) float64 { return 1 },
		GapY: func(q, j int) float64 { return 1 },
	}
	d := AlignIterative(0, 0, g)
	ops := Traceback(d, 0, 0, g)
	if len(ops) != 0 {
		t.Fatalf("empty alignment has ops: %v", ops)
	}
	if !OpsCoverSequences(nil, 0, 0) {
		t.Fatal("empty cover rejected")
	}
}

func TestOpsCoverRejectsGaps(t *testing.T) {
	if OpsCoverSequences([]Op{{Kind: 'M', I: 1, J: 1}}, 2, 1) {
		t.Fatal("incomplete cover accepted")
	}
	if OpsCoverSequences([]Op{{Kind: 'M', I: 2, J: 1}}, 2, 1) {
		t.Fatal("non-monotone cover accepted")
	}
	if OpsCoverSequences([]Op{{Kind: '?', I: 1, J: 1}}, 1, 1) {
		t.Fatal("unknown op accepted")
	}
}
