package bench

import (
	"runtime"
	"sync"
	"time"

	"gep/internal/vec"
)

// Peak-FLOPS calibration. The paper reports kernel performance as "%
// of peak", with peak = 2 × clock (two double-precision flops per
// cycle on its machines). Go code on an unknown container has no
// published peak, so we measure one: the throughput of independent
// multiply-then-add chains over register-resident accumulators
// (vec.MulAddChains), as wide as the float64 kernels run — eight lanes
// on the AVX-512 tier, four on the AVX2 tier, scalar otherwise. That is
// the same figure of merit — the fastest FP rate the kernels'
// instructions reach on this machine — and every kernel is scored
// against it.

var (
	peakOnce sync.Once
	peakVal  float64
)

// PeakGFLOPS returns the calibrated peak, measuring it on first use.
func PeakGFLOPS() float64 {
	peakOnce.Do(func() { peakVal = measurePeak(200 * time.Millisecond) })
	return peakVal
}

// measurePeak runs the calibration kernel for roughly the given
// duration and returns the best observed GFLOPS.
func measurePeak(budget time.Duration) float64 {
	const iters = 1 << 20
	best := 0.0
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		start := time.Now()
		flops, sum := vec.MulAddChains(iters)
		d := time.Since(start)
		sink = sum
		if g := GFLOPS(flops, d); g > best {
			best = g
		}
	}
	return best
}

// sink defeats dead-code elimination.
var sink float64

// HostInfo describes the machine for the Table 2 reproduction; it is
// also the host header of every BENCH_*.json report, so compare can
// warn when two runs came from different machines.
type HostInfo struct {
	GoVersion  string  `json:"go_version"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	CPUs       int     `json:"cpus"`
	PeakGFLOPS float64 `json:"peak_gflops"`
}

// Host gathers the host description.
func Host() HostInfo {
	return HostInfo{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		PeakGFLOPS: PeakGFLOPS(),
	}
}
