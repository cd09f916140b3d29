package core

import "gep/internal/metrics"

// Engine telemetry. Counters cost one atomic add per event and are
// incremented at recursion granularity, never per element: a fork is
// one task handed to the spawner by a Figure-6 schedule, and a kernel
// dispatch is one base-case block (baseSize² elements of work per
// increment, so at the tuned base sizes the overhead is unmeasurable;
// only the pure baseSize=1 recursion pays one add per update, and that
// configuration exists for theory validation, not performance).
// internal/bench snapshots these around every experiment so each
// BENCH_*.json row can report, e.g., what fraction of base cases took
// the flat fast path of fastpath.go.
var (
	forkCount          = metrics.New("core.forks")
	kernelFusedCount   = metrics.New("core.kernel.fused")
	kernelFlatCount    = metrics.New("core.kernel.flat")
	kernelGenericCount = metrics.New("core.kernel.generic")

	// Packed base-case dispatches (bits.go), split by the tier that
	// ran: the plain word-parallel kernel or the four-Russians table
	// kernel. Packed blocks that decline both (no Ranger bound) fall
	// through to the generic path and count under core.kernel.generic.
	kernelBitsWordCount = metrics.New("core.kernel.bits.word")
	kernelBitsM4RICount = metrics.New("core.kernel.bits.m4ri")
)
