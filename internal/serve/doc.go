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
//   - The wire codec (codec.go) carries the two Θ(n²) bodies. A
//     submission is read whole up to a body cap derived from
//     Config.MaxN (413 past it). decodeSpec refuses (413) a body with
//     more commas than two MaxN² arrays need, then parses the
//     data/a/b number arrays of a canonical body directly — JSON
//     number grammar checked, strconv.ParseFloat, no reflection — and
//     hands the small remainder, or any body it does not take, to
//     json.Decoder with DisallowUnknownFields, the reference it must
//     match (FuzzDecodeSpec). A finished job retains only its output
//     as one row-major []float64, its inputs released; the result
//     handler streams compact JSON from it through a fixed 32 KiB
//     buffer without the server lock (the slice is never written once
//     the job is done), and ResultOf builds Result.Data from it for Go
//     callers.
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
