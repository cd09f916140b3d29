package main

import (
	"sort"
	"time"

	"gep/internal/core"
)

// kernelTime estimates the base-case kernel time of an n×n I-GEP run
// over set: the number of b×b blocks core.IGEPBlocks visits times the
// measured time of one b×b facade call (tBase). That call is the
// diagonal base case, so where the off-diagonal kernels run faster per
// update the estimate exceeds the real kernel time and the overhead
// share derived from it goes negative.
func kernelTime(n, b int, set core.UpdateSet, tBase float64) float64 {
	return float64(len(core.IGEPBlocks(n, b, set, true))) * tBase
}

// probeReps is how many calls a kernel probe times; it reports their
// median.
const probeReps = 500

// tileKernelLayers measures core.TileKernel, the engine tier that the
// service and the out-of-core store run, on four distinct 64² tiles.
func tileKernelLayers(L map[string]float64) {
	const s = 64
	rng := newRand(0, 7)
	x0, u, v, w := vector(rng, s*s), vector(rng, s*s), vector(rng, s*s), vector(rng, s*s)
	for i := 0; i < s; i++ {
		w[i*s+i] += s
	}
	x := make([]float64, s*s)
	// i0, j0 and k0 start three distinct aligned quadrants, with k0 below
	// both so every update of the LU set applies.
	const i0, j0, k0 = 128, 192, 64
	for name, f := range map[string]func(){
		"mm": func() { core.TileKernel[float64](core.MulAdd[float64]{}, core.Full{}, x, u, v, w, i0, j0, k0, s) },
		"fw": func() { core.TileKernel[float64](core.MinPlus[float64]{}, core.Full{}, x, u, v, w, i0, j0, k0, s) },
		"lu": func() { core.TileKernel[float64](core.LUFactor[float64]{}, core.LU{}, x, u, v, w, i0, j0, k0, s) },
	} {
		t := repeatMedian(probeReps, func() { copy(x, x0) }, f)
		L["core.tile_kernel_gflops."+name] = 2 * cube(s) / t / 1e9
	}
}

// repeatMedian runs prep (untimed) then f, reps times, and returns the
// median time of f in seconds.
func repeatMedian(reps int, prep, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		prep()
		start := time.Now()
		f()
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts)
}

// timeIt runs f once as a root span and returns its time in seconds.
func timeIt(tr *tracer, name string, f func()) float64 {
	t, _ := tr.timed(name, "extra", 0, func() error { f(); return nil })
	return t.Seconds()
}

func cube(b int) float64 { return float64(b) * float64(b) * float64(b) }

// counterLayers fills the metrics read from metrics.Default deltas: the
// share of fused base cases, forks per op, and the scheduler ratios.
func counterLayers(L map[string]float64, c map[string]int64, ops int) {
	f := func(k string) float64 { return float64(c[k]) }
	fused := f("core.kernel.fused") + f("core.kernel.tile.fused")
	all := fused + f("core.kernel.flat") + f("core.kernel.generic") + f("core.kernel.tile.flat") + f("core.kernel.tile.generic")
	L["core.fused_share"] = ratio(fused, all)
	L["core.forks"] = ratio(f("core.forks"), float64(ops))
	pooled, inline := f("par.spawn.pooled"), f("par.spawn.inline")
	L["par.steal_ratio"] = ratio(f("par.steal"), pooled)
	L["par.inline_ratio"] = ratio(inline, pooled+inline)
	L["par.help_ratio"] = ratio(f("par.help"), pooled)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
