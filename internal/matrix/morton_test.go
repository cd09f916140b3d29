package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMortonIndexSmall(t *testing.T) {
	// Z-order over a 4x4 grid:
	//  0  1  4  5
	//  2  3  6  7
	//  8  9 12 13
	// 10 11 14 15
	want := [][]int{
		{0, 1, 4, 5},
		{2, 3, 6, 7},
		{8, 9, 12, 13},
		{10, 11, 14, 15},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got := MortonIndex(i, j); got != want[i][j] {
				t.Errorf("MortonIndex(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
}

func TestMortonRoundTrip(t *testing.T) {
	f := func(i16, j16 uint16) bool {
		i, j := int(i16), int(j16)
		gi, gj := MortonDecode(MortonIndex(i, j))
		return gi == i && gj == j
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Morton order is a bijection on [0,n)² — all indices in
// [0, n²) are hit exactly once.
func TestMortonBijection(t *testing.T) {
	const n = 32
	seen := make([]bool, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			z := MortonIndex(i, j)
			if z < 0 || z >= n*n {
				t.Fatalf("MortonIndex(%d,%d) = %d out of range", i, j, z)
			}
			if seen[z] {
				t.Fatalf("MortonIndex(%d,%d) = %d duplicated", i, j, z)
			}
			seen[z] = true
		}
	}
}

// Property: quadrant contiguity — the key cache property. All cells of
// any aligned 2^r × 2^r quadrant occupy a contiguous Morton range.
func TestMortonQuadrantContiguity(t *testing.T) {
	const n = 64
	for r := 0; (1 << r) <= n; r++ {
		size := 1 << r
		for qi := 0; qi < n/size; qi++ {
			for qj := 0; qj < n/size; qj++ {
				lo, hi := math.MaxInt, -1
				for i := qi * size; i < (qi+1)*size; i++ {
					for j := qj * size; j < (qj+1)*size; j++ {
						z := MortonIndex(i, j)
						if z < lo {
							lo = z
						}
						if z > hi {
							hi = z
						}
					}
				}
				if hi-lo+1 != size*size {
					t.Fatalf("quadrant (%d,%d) size %d spans [%d,%d], not contiguous", qi, qj, size, lo, hi)
				}
			}
		}
	}
}

func TestTiledRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 8, 32} {
		for block := 1; block <= n; block *= 2 {
			a := NewSquare[float64](n)
			a.Apply(func(i, j int, _ float64) float64 { return rng.Float64() })
			tl := NewTiled[float64](n, block)
			tl.FromDense(a)
			back := tl.ToDense()
			if !back.EqualFunc(a, func(x, y float64) bool { return x == y }) {
				t.Fatalf("n=%d block=%d: FromDense/ToDense not a round trip", n, block)
			}
			// Element accessors agree with the dense original.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if tl.At(i, j) != a.At(i, j) {
						t.Fatalf("Tiled.At(%d,%d) mismatch", i, j)
					}
				}
			}
		}
	}
}

func TestTiledSetAt(t *testing.T) {
	tl := NewTiled[int](8, 2)
	tl.Set(5, 6, 99)
	if tl.At(5, 6) != 99 {
		t.Fatal("Tiled Set/At round trip failed")
	}
	// Index covers the full range bijectively.
	seen := make([]bool, 64)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			idx := tl.Index(i, j)
			if seen[idx] {
				t.Fatalf("Index(%d,%d) = %d duplicated", i, j, idx)
			}
			seen[idx] = true
		}
	}
}

func TestTiledTileDataRowMajorWithinTile(t *testing.T) {
	tl := NewTiled[int](8, 4)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			tl.Set(i, j, i*8+j)
		}
	}
	tile := tl.TileData(1, 0) // tile rows 4..7, cols 0..3
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			want := (4+r)*8 + c
			if tile[r*4+c] != want {
				t.Fatalf("TileData[%d,%d] = %d, want %d", r, c, tile[r*4+c], want)
			}
		}
	}
}

func TestNewTiledValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewTiled[int](6, 2) },
		func() { NewTiled[int](8, 3) },
		func() { NewTiled[int](4, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
}
