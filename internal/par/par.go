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

// SetWorkers fixes the default runtime's worker-set size; see
// Runtime.SetWorkers.
func SetWorkers(n int) { std.SetWorkers(n) }

// ResetWorkers returns the default runtime to GOMAXPROCS tracking; see
// Runtime.ResetWorkers.
func ResetWorkers() { std.ResetWorkers() }

// Workers returns the default runtime's worker-set size.
func Workers() int { return std.Workers() }

// Ctx is a task's scheduling context: the runtime it forks on, the
// worker running it (nil off the worker set) and the fork depth of the
// tasks it forks. Root starts a computation; every task receives its
// own Ctx, and a fork site passes on the Ctx it was handed, so routing
// a fork to the caller's deque and applying the depth cutoff cost no
// lookup. A Ctx belongs to the goroutine running its task. The zero
// Ctx has no runtime and must not fork.
type Ctx struct {
	r *Runtime
	w *worker
	// depth is the fork depth of this context's forks: 0 at a root,
	// one more than the running task's own depth inside a task.
	depth int32
}

// Root returns the context a computation starts from: off the worker
// set, forking at depth 0.
func (r *Runtime) Root() Ctx { return Ctx{r: r} }

func noopWait() {}

// Spawn forks task on the context's runtime and returns a function
// that waits for it to complete. The task runs with a Ctx of its own
// at this fork's depth.
//
// Routing policy, in order:
//
//  1. Aborted runtime: the task is discarded — it never runs, and the
//     returned wait is a no-op (see Abort).
//  2. One worker, a closed runtime, or fork depth at/past the cutoff:
//     run inline on the caller and return a no-op wait. This is a
//     policy decision made before any queueing, so forks inline only
//     once the recursion has exposed enough parallel slack, never
//     because a pool happens to be full.
//  3. Caller is a worker of this runtime's live generation: push onto
//     its own deque (LIFO end). The owner pops newest-first, so an
//     unstolen child runs in the same order, on the same goroutine,
//     with the same warm cache as the serial execution — the
//     work-first discipline that preserves the Lemma 3.1/3.2 locality
//     arguments.
//  4. Otherwise (a root context, or a worker of a retired
//     generation): push onto a pseudo-randomly chosen worker's deque.
//
// The returned wait helps: while the task is unfinished, the waiting
// goroutine executes other pending tasks of this runtime (own deque
// first, then stealing no shallower than the awaited fork) rather than
// blocking a worker, so joins can never deadlock the worker set, and a
// task stranded by a concurrent SetWorkers resize is executed by its
// own joiner.
func (cx Ctx) Spawn(task func(Ctx)) (wait func()) {
	r := cx.r
	if r.aborted.Load() {
		return noopWait
	}
	rt := r.current()
	if len(rt.workers) == 1 || r.closed.Load() || cx.depth >= rt.cutoff {
		r.c.inline.Inc()
		task(Ctx{r: r, w: cx.w, depth: cx.depth + 1})
		return noopWait
	}
	t := &wtask{fn: task, depth: cx.depth, done: make(chan struct{})}
	r.c.pooled.Inc()
	if w := cx.w; w != nil && w.rt == rt {
		r.c.localSpawn.Inc()
		w.dq.push(t)
	} else {
		r.c.injectSpawn.Inc()
		injectVictim(rt).dq.push(t)
	}
	rt.wakeOne()
	return func() { rt.join(t, cx.w) }
}

// Do executes the tasks as one fork-join group: all but the last are
// forked, the last runs on the caller in cx, and Do returns only when
// every task has completed. On an aborted runtime Do returns
// immediately without running any task.
func (cx Ctx) Do(tasks ...func(Ctx)) {
	if cx.r.aborted.Load() || len(tasks) == 0 {
		return
	}
	last := len(tasks) - 1
	waits := make([]func(), last)
	for i, t := range tasks[:last] {
		waits[i] = cx.Spawn(t)
	}
	tasks[last](cx)
	for _, w := range waits {
		w()
	}
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
