package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest whole percentile p of xs that has at least
// ten samples beyond it (nearest-rank), its value, and the number of
// samples beyond it. ok is false with fewer than eleven samples.
func tail(xs []float64) (p int, value float64, beyond int, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p = 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if n-rank >= 10 {
			return p, s[rank-1], n - rank, true
		}
	}
	return 0, 0, 0, false
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
