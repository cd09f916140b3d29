package core

import (
	"gep/internal/metrics"
	"gep/internal/par"
)

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

// parGroup executes tasks as one fork-join group: when parallel
// execution is enabled and the subproblem side s is above the grain,
// all but the last task are forked on the run's work-stealing runtime
// (internal/par; the default one unless WithRuntime set another) and
// the last runs on the calling goroutine; otherwise all run serially
// in order. A fork goes to the caller's worker deque, and forks at or
// past the runtime's depth cutoff run inline, so a run never
// oversubscribes the Go scheduler. It is the shared body of the
// A/B/C/D, disjoint, and parallel C-GEP `parallel:` steps (Figure 6).
func parGroup[T any](cfg *config[T], s int, tasks ...func()) {
	if !cfg.parallel || s <= cfg.grain {
		for _, t := range tasks {
			t()
		}
		return
	}
	forkCount.Add(int64(len(tasks) - 1))
	rt := par.Or(cfg.rt)
	waits := make([]func(), 0, len(tasks)-1)
	for _, t := range tasks[:len(tasks)-1] {
		waits = append(waits, rt.Spawn(t))
	}
	tasks[len(tasks)-1]()
	for _, w := range waits {
		w()
	}
}
