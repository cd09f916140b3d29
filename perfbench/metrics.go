package main

import (
	"fmt"
	"strings"
)

// The metric catalogue. BENCHMARK.json lists the same names, units and
// directions (the smoke test checks that the two agree); this file adds
// what BENCHMARK.json has no field for: the layer a per-layer metric
// belongs to, the workload it is measured on, and the end-to-end metric
// it should move.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Layer is the module the metric measures ("" for end-to-end).
	Layer string
	// Workload is the workload that measures it; "all" for every one.
	// A per-layer metric reads 0 on the workloads it is not measured on.
	Workload string
	// Moves names the end-to-end metric (and workload) a change in this
	// metric should show up in; "—" when it is a ceiling or a count.
	Moves string
	// What says how it is measured.
	What string
}

// Workload names.
const (
	wDense = "dense-facade"
	wServe = "serve-jobs"
	wOOC   = "ooc-tiles"
)

var workloadNames = []string{wDense, wServe, wOOC}

// endToEnd is what the untraced run reports on every workload: the
// metrics a caller sees that every workload defines.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Workload: "all",
		What: "median over the run's set-ups of the time before the first timed op (serve: server exec to /healthz 200 plus one warm-up job per op; else one warm-up call per op)"},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Workload: "all",
		What: "peak resident set (VmHWM) of the process doing the work, reset at the start of the timed phase; gep-server on serve-jobs"},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Workload: "all",
		What: "completed ops divided by the wall time of the timed phase"},
	{Name: "mm_s", Unit: "s", Better: "lower", Workload: "all",
		What: "median time to solution of a multiply: MultiplyParallel call, multiply job POST to last byte, or ooc RunStrassen from Create to Close"},
	{Name: "lu_s", Unit: "s", Better: "lower", Workload: "all",
		What: "median time to solution of a pivot-free LU: Solve call, lu job POST to last byte, or ooc lu from Create to Close"},
}

// perLayer is what the traced run reports.
var perLayer = []metricDef{
	// serve, with cmd/gep-server.
	{"serve.latency_p50_ms", "ms", "lower", "serve", wServe, "throughput_ops_s on serve-jobs", "median time from POST to the last result byte, all jobs"},
	{"serve.latency_tail_ms", "ms", "lower", "serve", wServe, "throughput_ops_s on serve-jobs", "highest percentile with at least 10 samples beyond it (percentile and count are printed with it)"},
	{"serve.apsp_s", "s", "lower", "serve", wServe, "throughput_ops_s on serve-jobs", "median apsp job time, POST to last byte"},
	{"serve.closure_s", "s", "lower", "serve", wServe, "throughput_ops_s on serve-jobs", "median closure job time, POST to last byte"},
	{"serve.submit_ms", "ms", "lower", "serve", wServe, "serve.latency_p50_ms, throughput_ops_s", "median POST round trip"},
	{"serve.queue_ms", "ms", "lower", "serve", wServe, "serve.latency_tail_ms", "median queued_at to started_at"},
	{"serve.exec_ms", "ms", "lower", "serve", wServe, "mm_s, lu_s on serve-jobs", "median started_at to finished_at"},
	{"serve.discover_ms", "ms", "lower", "serve", wServe, "serve.latency_p50_ms", "median finished_at to the start of the successful result GET"},
	{"serve.fetch_ms", "ms", "lower", "serve", wServe, "serve.latency_p50_ms, throughput_ops_s", "median successful result GET to its last byte"},
	{"serve.request_bytes", "B", "lower", "serve", wServe, "serve.submit_ms, peak_rss_mib", "mean request body bytes per job"},
	{"serve.response_bytes", "B", "lower", "serve", wServe, "serve.fetch_ms, peak_rss_mib", "mean result body bytes per job"},
	{"serve.polls_per_job", "count", "lower", "serve", wServe, "throughput_ops_s on serve-jobs", "409 responses per completed job"},
	{"serve.par_tasks_per_job", "count", "lower", "serve", wServe, "serve.exec_ms", "mean JobView tasks (pooled + inline spawns)"},
	{"serve.par_steal_ratio", "ratio", "lower", "serve", wServe, "serve.exec_ms", "par.steal / par.spawn.pooled over JobView metrics"},
	{"serve.exec_share", "ratio", "higher", "serve", wServe, "—", "Σexec / Σlatency: the ceiling on what a compute change can save here"},
	{"serve.span_coverage", "ratio", "higher", "serve", wServe, "—", "union of the submit, queue, exec, discover and fetch spans / client latency, summed over jobs"},

	// gep, the facade.
	{"gep.apsp_s", "s", "lower", "gep", wDense, "throughput_ops_s on dense-facade", "median FloydWarshallParallel call"},
	{"gep.calu_s", "s", "lower", "gep", wDense, "throughput_ops_s on dense-facade", "median FactorCAParallel + Solve"},
	{"gep.base_gflops.mm", "GFLOPS", "higher", "gep", wDense, "mm_s on dense-facade", "Multiply at n=64, one hand base case"},
	{"gep.base_gflops.fw", "GFLOPS", "higher", "gep", wDense, "gep.apsp_s", "FloydWarshall at n=64, one hand base case"},
	{"gep.base_gflops.lu", "GFLOPS", "higher", "gep", wDense, "lu_s on dense-facade", "Factorize at n=64, one hand base case"},
	{"gep.overhead_share.mm", "ratio", "lower", "gep", wDense, "mm_s on dense-facade", "1 − (core.IGEPBlocks count × the n=64 call's time) / serial Multiply time at n; negative when off-diagonal kernels beat the diagonal one"},
	{"gep.overhead_share.fw", "ratio", "lower", "gep", wDense, "gep.apsp_s", "as above for FloydWarshall"},
	{"gep.overhead_share.lu", "ratio", "lower", "gep", wDense, "lu_s on dense-facade", "as above for Factorize (LUIGEP)"},

	// linalg and apsp, the op entry points.
	{"linalg.lu_factor_s", "s", "lower", "linalg", wDense, "lu_s on dense-facade", "LUIGEP at n"},
	{"linalg.lu_subst_s", "s", "lower", "linalg", wDense, "lu_s on dense-facade", "SolveLU at n"},
	{"linalg.calu_factor_s", "s", "lower", "linalg", wDense, "gep.calu_s", "median FactorCAParallel inside the calu op"},
	{"linalg.calu_subst_s", "s", "lower", "linalg", wDense, "gep.calu_s", "median LUP.Solve inside the calu op"},
	{"linalg.calu_edge_share", "ratio", "lower", "linalg", wDense, "gep.calu_s", "linalg.pivot.trailing.edge / linalg.pivot.trailing.tiles"},

	// core, kernels and recursion.
	{"core.peak_gflops", "GFLOPS", "higher", "core", "all", "—", "bench.PeakGFLOPS calibration: the denominator"},
	{"core.tile_kernel_gflops.mm", "GFLOPS", "higher", "core", "all", "mm_s on ooc-tiles and serve-jobs", "core.TileKernel MulAdd on four distinct 64² tiles"},
	{"core.tile_kernel_gflops.fw", "GFLOPS", "higher", "core", "all", "serve.apsp_s", "core.TileKernel MinPlus on four distinct 64² tiles"},
	{"core.tile_kernel_gflops.lu", "GFLOPS", "higher", "core", "all", "lu_s on ooc-tiles and serve-jobs", "core.TileKernel LUFactor on four distinct 64² tiles"},
	{"core.fused_share", "ratio", "higher", "core", "all", "lu_s on ooc-tiles", "fused / all base-case dispatches from the core.kernel.* and core.kernel.tile.* deltas"},
	{"core.forks", "count", "lower", "core", "all", "—", "core.forks delta per op"},

	// par, the scheduler.
	{"par.speedup.mm", "ratio", "higher", "par", wDense, "mm_s on dense-facade", "Multiply ÷ MultiplyParallel at p=2"},
	{"par.speedup.fw", "ratio", "higher", "par", wDense, "gep.apsp_s", "FloydWarshall ÷ FloydWarshallParallel at p=2"},
	{"par.speedup.calu", "ratio", "higher", "par", wDense, "gep.calu_s", "FactorCA+Solve ÷ FactorCAParallel+Solve at p=2"},
	{"par.steal_ratio", "ratio", "lower", "par", "all", "mm_s, gep.apsp_s, gep.calu_s on dense-facade", "par.steal / par.spawn.pooled, metrics.Default deltas"},
	{"par.inline_ratio", "ratio", "higher", "par", "all", "mm_s, gep.apsp_s, gep.calu_s on dense-facade", "par.spawn.inline / all spawns"},
	{"par.help_ratio", "ratio", "lower", "par", "all", "mm_s, gep.apsp_s, gep.calu_s on dense-facade", "par.help / par.spawn.pooled"},

	// ooc, the store.
	{"ooc.resume_s", "s", "lower", "ooc", wOOC, "resume_s on ooc-tiles (printed, not gated)", "median resume op, Open to Close, on a durable store after the timed phase"},
	{"ooc.load_s", "s", "lower", "ooc", wOOC, "lu_s, mm_s on ooc-tiles", "LoadTiles, summed over one lu and one mm op (medians)"},
	{"ooc.run_s", "s", "lower", "ooc", wOOC, "lu_s, mm_s on ooc-tiles", "RunIGEP/RunStrassen, summed over one lu and one mm op (medians)"},
	{"ooc.unload_s", "s", "lower", "ooc", wOOC, "lu_s, mm_s on ooc-tiles", "Unload + Close, summed over one lu and one mm op (medians)"},
	{"ooc.recover_s", "s", "lower", "ooc", wOOC, "ooc.resume_s", "Open + Recover in the resume op (median)"},
	{"ooc.incore_ratio.lu", "ratio", "lower", "ooc", wOOC, "lu_s on ooc-tiles", "RunIGEP time ÷ in-core core.RunIGEP at base 64"},
	{"ooc.incore_ratio.mm", "ratio", "lower", "ooc", wOOC, "mm_s on ooc-tiles", "RunStrassen time ÷ in-core linalg.MulFused at base 64"},
	{"ooc.durability_ratio.lu", "ratio", "lower", "ooc", wOOC, "—", "the lu op on a CreateAt store (checkpoint every 64 blocks) ÷ lu_s on Create stores: journal and fsync cost, which no gated metric includes"},
	{"ooc.tile_reads", "count", "lower", "ooc", wOOC, "lu_s, mm_s on ooc-tiles", "Stats.TileReads per round (one lu and one mm op)"},
	{"ooc.tile_writes", "count", "lower", "ooc", wOOC, "lu_s, mm_s on ooc-tiles", "Stats.TileWrites per round"},
	{"ooc.bytes_physical", "B", "lower", "ooc", wOOC, "lu_s, mm_s on ooc-tiles", "Stats.BytesPhysical per round"},
	{"ooc.journal_commits", "count", "lower", "ooc", wOOC, "ooc.resume_s, ooc.durability_ratio.lu", "Stats.JournalCommits per durable lu op plus resume op"},
	{"ooc.journal_bytes", "B", "lower", "ooc", wOOC, "ooc.resume_s, ooc.durability_ratio.lu", "Stats.JournalBytes per durable lu op plus resume op"},
	{"ooc.tile_hit_ratio", "ratio", "higher", "ooc", wOOC, "lu_s, mm_s on ooc-tiles", "ooc.tile.hit / (hit + fault)"},
	{"ooc.prefetch_hit_ratio", "ratio", "higher", "ooc", wOOC, "lu_s, mm_s on ooc-tiles", "ooc.prefetch.hit / ooc.prefetch.issued"},
	{"ooc.mm_io_vs_bound", "ratio", "lower", "ooc", wOOC, "mm_s on ooc-tiles", "tile words moved by RunStrassen ÷ 2n³/√M (M = cache words)"},

	// The benchmark's own tracing.
	{"trace.overhead", "ratio", "lower", "trace", "all", "—", "traced ÷ untraced time per op, from alternating traced and untraced rounds of one run"},
}

// printedOnly are the end-to-end metrics the human-readable report adds
// for the workloads that define them. They are not in BENCHMARK.json
// because not every workload defines them (error_rate is also 0 on a
// correct run, and is what attempted/failed carry).
var printedOnly = []metricDef{
	{Name: "error_rate", Unit: "ratio", Better: "lower", Workload: "all"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Workload: wServe},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Workload: wServe},
	{Name: "apsp_s", Unit: "s", Better: "lower", Workload: wDense + "," + wServe},
	{Name: "closure_s", Unit: "s", Better: "lower", Workload: wServe},
	{Name: "calu_s", Unit: "s", Better: "lower", Workload: wDense},
	{Name: "resume_s", Unit: "s", Better: "lower", Workload: wOOC},
}

// catalogueMarkdown renders the catalogue as the tables of README.md.
func catalogueMarkdown() string {
	var b strings.Builder
	b.WriteString("End-to-end (untraced run, every workload):\n\n| metric | unit | better | what |\n|---|---|---|---|\n")
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", d.Name, d.Unit, d.Better, d.What)
	}
	b.WriteString("\nPrinted with them where the workload defines them (not gated):\n\n| metric | unit | better | workloads |\n|---|---|---|---|\n")
	for _, d := range printedOnly {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", d.Name, d.Unit, d.Better, d.Workload)
	}
	b.WriteString("\nPer-layer (traced run; 0 on workloads other than the one named):\n\n| metric | unit | better | layer | workload | should move | what |\n|---|---|---|---|---|---|---|\n")
	for _, d := range perLayer {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, d.Layer, d.Workload, d.Moves, d.What)
	}
	return b.String()
}

// unitOf returns the unit of a catalogued metric.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer, printedOnly} {
		for _, d := range set {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
