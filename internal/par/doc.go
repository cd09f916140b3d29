// Package par is the work-stealing fork-join runtime behind the
// parallel GEP engines (internal/core, internal/linalg, internal/apsp)
// and the out-of-core store's background I/O (internal/ooc).
//
// The multithreaded recursions of Figure 6 expose far more parallel
// tasks than there are processors — that surplus (parallel slack) is
// what gives the paper's Theorem 3.1 its T_p = O(T_1/p + T_inf)
// guarantee, but only if the scheduler keeps it. A Runtime owns a
// long-lived worker set: each worker owns a LIFO deque it pushes and
// pops at the tail, idle workers steal FIFO from the head of a
// randomly chosen victim, and a fork at or past the depth cutoff runs
// inline on its caller by policy. LIFO self-execution reproduces the
// serial depth-first order on each worker (so a subtree's blocks stay
// in that worker's cache — the locality behind Lemma 3.1/3.2, modeled
// in internal/sched), FIFO stealing migrates the largest pending
// subtrees (so one steal pays for many local pops), and the depth
// cutoff stops forking once the slack already exceeds the worker
// count, instead of discarding slack whenever a token pool happens to
// be full. Joins help rather than block: a goroutine waiting on a
// fork executes other pending tasks (its own deque first, then
// stealing no shallower than the awaited fork), which makes nested
// fork-join deadlock-free by construction.
//
// Forks carry their context. Runtime.Root returns the Ctx a
// computation starts from; Ctx.Spawn forks one task and returns a
// wait function, and Ctx.Do runs a slice of tasks as one fork-join
// group. Every task receives a Ctx naming the runtime, the worker
// running it and its fork depth, and forks from it — that is what
// routes a fork to the caller's own deque and what the depth cutoff
// reads, at the same cost at any stack depth.
//
// There are two ways to get a runtime. Default is the process-wide
// instance, sized by GOMAXPROCS, which the package-level SetWorkers,
// ResetWorkers and Workers act on — the right choice for a program
// running one computation at a time. NewRuntime creates an additional
// isolated instance with its own workers, deques and metrics registry:
// tasks forked on one runtime are only ever executed by that runtime's
// workers (or inline by its callers), so concurrent computations on
// separate Runtimes cannot occupy each other's worker budgets. That
// isolation is what internal/serve builds its multi-tenant job
// service on — one Runtime per job — and it is observable: each
// runtime's counters live in its own metrics.Registry, and
// "par.spawn.pooled" == "par.local" + "par.steal" + "par.help" holds
// per registry. Engines accept a runtime through core.WithRuntime
// (e.g. linalg.LUIGEP(m, base, core.WithParallel(grain),
// core.WithRuntime(rt))); passing nil means the default instance.
//
// A non-default Runtime has a lifecycle: Close drains its workers and
// retires it (later forks run inline, staying correct), and Abort is
// best-effort cancellation — queued and future task bodies are
// skipped and joiners released, leaving results undefined, which is
// only acceptable because an aborted job's output is discarded. Close
// and Abort of the default runtime panic.
//
// Every decision is recorded — "par.spawn.pooled" vs
// "par.spawn.inline" on the fork side, "par.local" / "par.steal" /
// "par.help" on the execution side, and a per-worker depth histogram
// ("par.w<i>.d<k>") — and lands in BENCH_*.json telemetry. See
// DESIGN.md §11 for the scheduling discipline and its cache argument,
// and §14 for runtime isolation.
package par
