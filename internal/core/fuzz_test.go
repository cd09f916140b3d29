package core

import (
	"testing"

	"gep/internal/matrix"
)

// Native fuzz targets. `go test` runs the seed corpus as regular
// tests; `go test -fuzz=FuzzCGEP ./internal/core` explores further.
// The oracle in both targets is differential: C-GEP must equal the
// iterative loop nest on EVERY instance the fuzzer can construct.

// decodeFuzzInstance builds a GEP instance from raw fuzz bytes:
// the first byte picks the size, the next picks the update function,
// then membership bits for Σ and int8 matrix entries.
func decodeFuzzInstance(data []byte) (n int, f UpdateFunc[int64], set *Explicit, in *matrix.Dense[int64], ok bool) {
	if len(data) < 3 {
		return 0, nil, nil, nil, false
	}
	n = 1 << (int(data[0]) % 4) // 1, 2, 4, 8
	fs := []UpdateFunc[int64]{
		func(i, j, k int, x, u, v, w int64) int64 { return x + u + v + w },
		func(i, j, k int, x, u, v, w int64) int64 { return x - 2*u + 3*v ^ w },
		func(i, j, k int, x, u, v, w int64) int64 {
			if u+v < x {
				return u + v
			}
			return x
		},
		func(i, j, k int, x, u, v, w int64) int64 { return x*1 + u*v - w + int64(i+j+k) },
	}
	f = fs[int(data[1])%len(fs)]
	data = data[2:]

	set = NewExplicit(n)
	bitIdx := 0
	nextBit := func() bool {
		if bitIdx/8 >= len(data) {
			return false
		}
		b := data[bitIdx/8]>>(bitIdx%8)&1 == 1
		bitIdx++
		return b
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if nextBit() {
					set.Add(i, j, k)
				}
			}
		}
	}
	// Matrix entries from the remaining bytes.
	valStart := (bitIdx + 7) / 8
	in = matrix.NewSquare[int64](n)
	idx := 0
	in.Apply(func(i, j int, _ int64) int64 {
		var b byte
		if valStart+idx < len(data) {
			b = data[valStart+idx]
		}
		idx++
		return int64(int8(b))
	})
	return n, f, set, in, true
}

func FuzzCGEPMatchesGEP(fz *testing.F) {
	fz.Add([]byte{2, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4})
	fz.Add([]byte{1, 1, 0xAA, 0x55, 7})
	fz.Add([]byte{3, 2, 0x0F, 0xF0, 0xCC, 200, 100, 50})
	fz.Add([]byte{0, 3, 0x01})
	fz.Fuzz(func(t *testing.T, data []byte) {
		_, f, set, in, ok := decodeFuzzInstance(data)
		if !ok {
			return
		}
		want := in.Clone()
		RunGEP[int64](want, f, set)
		for name, run := range map[string]func(m *matrix.Dense[int64]){
			"cgep":    func(m *matrix.Dense[int64]) { RunCGEP[int64](m, f, set) },
			"compact": func(m *matrix.Dense[int64]) { RunCGEPCompact[int64](m, f, set) },
			"par":     func(m *matrix.Dense[int64]) { RunCGEP[int64](m, f, set, WithParallel[int64](2)) },
		} {
			got := in.Clone()
			run(got)
			if !matrix.Equal(want, got) {
				t.Fatalf("%s diverged from iterative GEP on fuzzed instance", name)
			}
		}
	})
}

func FuzzIGEPTheorem21(fz *testing.F) {
	fz.Add([]byte{2, 0, 0xF7, 0x9A, 3, 4})
	fz.Add([]byte{3, 1, 0x13, 0x37, 0xBE, 0xEF})
	fz.Fuzz(func(t *testing.T, data []byte) {
		n, f, set, in, ok := decodeFuzzInstance(data)
		if !ok {
			return
		}
		// Theorem 2.1 in counting form: each Σ triple applied exactly
		// once, nothing else.
		seen := map[[3]int]int{}
		counting := UpdateFunc[int64](func(i, j, k int, x, u, v, w int64) int64 {
			seen[[3]int{i, j, k}]++
			return f(i, j, k, x, u, v, w)
		})
		c := in.Clone()
		RunIGEP[int64](c, counting, set)
		if len(seen) != set.Len() {
			t.Fatalf("applied %d distinct updates, Σ has %d", len(seen), set.Len())
		}
		for tr, count := range seen {
			if count != 1 {
				t.Fatalf("update %v applied %d times", tr, count)
			}
			if !set.Contains(tr[0], tr[1], tr[2]) {
				t.Fatalf("foreign update %v", tr)
			}
		}
		_ = n
	})
}
