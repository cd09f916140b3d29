package par

import "runtime"

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// SetWorkers fixes this runtime's worker-set size to n (clamped to
// >= 1) and stops tracking GOMAXPROCS; the previous generation of
// workers drains its deques and retires. Use ResetWorkers to return to
// automatic sizing. On a closed runtime it is a no-op.
func (r *Runtime) SetWorkers(n int) { r.resize(n, true) }

// ResetWorkers returns the runtime to its default mode: a worker set
// sized by (and tracking) runtime.GOMAXPROCS.
func (r *Runtime) ResetWorkers() { r.resize(gomaxprocs(), false) }

// Workers returns the current worker-set size.
func (r *Runtime) Workers() int { return len(r.current().workers) }

// SetDepthCutoff overrides the fork-depth serial cutoff: Spawns at
// depth >= d run inline on their caller. d <= 0 restores the automatic
// policy (log2(workers) + 2, enough fork levels to saturate the
// workers with 4-8x slack for stealing). The change rebuilds the
// worker set, so it is a test-and-experiment knob, not a hot-path one.
func (r *Runtime) SetDepthCutoff(d int32) {
	r.cutoffOverride.Store(max32(d, 0))
	r.resize(r.Workers(), r.pinned.Load())
}

// DepthCutoff returns the active fork-depth cutoff.
func (r *Runtime) DepthCutoff() int32 { return r.current().cutoff }

// SetWorkers fixes the default runtime's worker-set size; see
// Runtime.SetWorkers.
func SetWorkers(n int) { std.SetWorkers(n) }

// ResetWorkers returns the default runtime to GOMAXPROCS tracking; see
// Runtime.ResetWorkers.
func ResetWorkers() { std.ResetWorkers() }

// Workers returns the default runtime's worker-set size.
func Workers() int { return std.Workers() }

// SetDepthCutoff overrides the default runtime's fork-depth cutoff;
// see Runtime.SetDepthCutoff.
func SetDepthCutoff(d int32) { std.SetDepthCutoff(d) }

// DepthCutoff returns the default runtime's fork-depth cutoff.
func DepthCutoff() int32 { return std.DepthCutoff() }

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func noopWait() {}

// Spawn forks task on this runtime and returns a function that waits
// for it to complete; the core engines fork every task through it.
//
// Routing policy, in order:
//
//  1. Aborted runtime: the task is discarded — it never runs, and the
//     returned wait is a no-op (see Abort).
//  2. One worker, a closed runtime, or fork depth at/past the cutoff:
//     run inline on the caller and return a no-op wait. This is a
//     policy decision made before any queueing — under the old
//     semaphore pool, deep forks ran inline only because the tokens
//     happened to be taken, which discarded exactly the parallel slack
//     the A/B/C/D recursion creates at its deep fork points.
//  3. Caller is a worker of this runtime's live generation: push onto
//     its own deque (LIFO end). The owner pops newest-first, so an
//     unstolen child runs in the same order, on the same goroutine,
//     with the same warm cache as the serial execution — the
//     work-first discipline that preserves the Lemma 3.1/3.2 locality
//     arguments.
//  4. Otherwise (external goroutine — the engine's initial call, or a
//     worker of some other Runtime): push onto a pseudo-randomly
//     chosen worker's deque of this runtime.
//
// The returned wait helps: while the task is unfinished, the waiting
// goroutine executes other pending tasks of this runtime (own deque
// first, then stealing no shallower than the awaited fork) rather than
// blocking a worker, so joins can never deadlock the worker set, and a
// task stranded by a concurrent SetWorkers resize is executed by its
// own joiner.
func (r *Runtime) Spawn(task func()) (wait func()) {
	if r.aborted.Load() {
		return noopWait
	}
	rt := r.current()
	if len(rt.workers) == 1 || r.closed.Load() {
		// Serial budget: every fork inlines, no ids, no queues — the
		// p = 1 wall time is the serial wall time plus one branch.
		r.c.inline.Inc()
		task()
		return noopWait
	}
	id := goid()
	ctx := lookupCtx(id)
	var depth int32
	if ctx != nil {
		depth = ctx.depth + 1
	}
	if depth >= rt.cutoff {
		r.c.inline.Inc()
		runInline(id, ctx, depth, task)
		return noopWait
	}
	t := &wtask{fn: task, depth: depth, done: make(chan struct{})}
	r.c.pooled.Inc()
	if w := workerOf(ctx, rt); w != nil {
		r.c.localSpawn.Inc()
		w.dq.push(t)
	} else {
		r.c.injectSpawn.Inc()
		injectVictim(rt).dq.push(t)
	}
	rt.wakeOne()
	return func() { rt.join(t) }
}

// Spawn forks task on the default runtime; see Runtime.Spawn.
func Spawn(task func()) (wait func()) { return std.Spawn(task) }

// workerOf returns the caller's worker when it belongs to the live
// generation of the spawning runtime, else nil.
func workerOf(ctx *gctx, rt *scheduler) *worker {
	if ctx != nil && ctx.w != nil && ctx.w.rt == rt {
		return ctx.w
	}
	return nil
}

// runInline executes a policy-inlined fork on the caller, keeping the
// goroutine's fork depth current so nested Spawns keep counting levels
// (otherwise an inlined subtree would restart the cutoff clock).
func runInline(id uint64, ctx *gctx, depth int32, task func()) {
	if ctx == nil {
		ctx = &gctx{}
		registerCtx(id, ctx)
		defer unregisterCtx(id)
	}
	old := ctx.depth
	ctx.depth = depth
	task()
	ctx.depth = old
}

// Do executes the tasks as one fork-join group on this runtime: all
// but the last are forked, the last runs on the calling goroutine, and
// Do returns only when every task has completed. On an aborted runtime
// Do returns immediately without running any task.
func (r *Runtime) Do(tasks ...func()) {
	if r.aborted.Load() {
		return
	}
	switch len(tasks) {
	case 0:
		return
	case 1:
		tasks[0]()
		return
	}
	waits := make([]func(), 0, len(tasks)-1)
	for _, t := range tasks[:len(tasks)-1] {
		waits = append(waits, r.Spawn(t))
	}
	tasks[len(tasks)-1]()
	for _, w := range waits {
		w()
	}
}

// Do executes the tasks as one fork-join group on the default runtime;
// see Runtime.Do.
func Do(tasks ...func()) { std.Do(tasks...) }

// Group is an incremental fork-join scope for call sites that fork a
// data-dependent number of tasks: Go forks, Wait joins them all. The
// zero value forks on the default runtime; NewGroup binds one to a
// specific Runtime. A Group is not safe for concurrent use by multiple
// goroutines (fork-join scopes are owned by one frame); after Wait it
// is empty and may be reused.
type Group struct {
	rt    *Runtime
	waits []func()
}

// NewGroup returns a Group whose forks go to this runtime.
func (r *Runtime) NewGroup() *Group { return &Group{rt: r} }

// Go forks task into the group.
func (g *Group) Go(task func()) {
	rt := g.rt
	if rt == nil {
		rt = std
	}
	g.waits = append(g.waits, rt.Spawn(task))
}

// Wait blocks until every task forked since the last Wait completes.
func (g *Group) Wait() {
	for _, w := range g.waits {
		w()
	}
	g.waits = g.waits[:0]
}

// Or returns r when non-nil and the default runtime otherwise — the
// normalization every engine entry point that takes an optional
// *Runtime applies, so nil keeps the historical shared-pool behavior.
func Or(r *Runtime) *Runtime {
	if r != nil {
		return r
	}
	return std
}
