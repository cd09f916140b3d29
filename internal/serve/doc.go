// Package serve is the GEP job service: an HTTP API that turns the
// in-core engines into a long-running multi-tenant compute server
// (cmd/gep-server). Clients submit matrix, graph and DP jobs as JSON,
// poll or stream their progress, and fetch results; the server runs
// each job on its own isolated par.Runtime so concurrent tenants can
// never occupy each other's worker budgets (DESIGN.md §14).
//
// The pieces, and where they live:
//
//   - Spec (spec.go) is the submitted job description: an op name
//     mapping to a facade operation ("multiply", "lu", "gauss",
//     "apsp", "closure", "matrixchain"), a problem size with either
//     explicit row-major input data or a deterministic random seed,
//     and optional per-job worker-budget and deadline overrides.
//   - Job (job.go) is one admitted job's lifecycle: queued → running →
//     done/failed/canceled, with timestamps, the per-runtime scheduler
//     counters snapshotted into the final status, and a cancel hook.
//   - Server (server.go) owns the bounded job queue, the fixed set of
//     executor goroutines (Config.MaxConcurrent), admission control
//     (queue-full and size-cap rejections with Retry-After), per-job
//     deadlines and cancellation via context, and graceful shutdown:
//     Shutdown stops admissions, drains queued and running jobs, and
//     aborts whatever is still in flight when its context expires.
//   - The HTTP layer (handlers.go) is the stdlib-only route table
//     documented endpoint by endpoint in docs/API.md, whose curl
//     examples are replayed against a live server by
//     api_examples_test.go.
//
// Isolation is the load-bearing property: every job gets a fresh
// par.Runtime sized to its worker budget, engines run with
// core.WithRuntime (e.g. linalg.MulFused(c, a, b, base,
// core.WithParallel(grain), core.WithRuntime(rt))) so all forks stay
// on that runtime, cancellation maps to Runtime.Abort, and the
// job's "par.*" counters come from the runtime's private metrics
// registry — which is how /metrics reports per-job scheduler activity
// next to the process-wide aggregate from /debug/vars.
package serve
