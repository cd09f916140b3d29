package ooc

import "gep/internal/metrics"

// Tile-runtime telemetry. Incremented at tile/transfer granularity
// (never per element); internal/bench snapshots them around each
// experiment so BENCH_ooc.json rows can report, e.g., the tile hit
// rate, the checksum verification volume, or the journal traffic of a
// durable run. docs/OPERATIONS.md carries the full inventory.
var (
	tileHitCount        = metrics.New("ooc.tile.hit")
	tileFaultCount      = metrics.New("ooc.tile.fault")
	tileFreshCount      = metrics.New("ooc.tile.fresh")
	tileOvercommitCount = metrics.New("ooc.tile.overcommit")

	checksumOKCount   = metrics.New("ooc.tile.checksum.ok")
	checksumFailCount = metrics.New("ooc.tile.checksum.fail")

	compressSavedCount = metrics.New("ooc.compress.saved")

	stripeReadCount  = metrics.New("ooc.stripe.read")
	stripeWriteCount = metrics.New("ooc.stripe.write")

	journalAppendCount  = metrics.New("ooc.journal.append")
	journalCommitCount  = metrics.New("ooc.journal.commit")
	journalApplyCount   = metrics.New("ooc.journal.apply")
	journalRecoverCount = metrics.New("ooc.journal.recovered")

	scratchAllocCount = metrics.New("ooc.strassen.scratch.alloc")
	scratchReuseCount = metrics.New("ooc.strassen.scratch.reuse")

	writeBehindCount   = metrics.New("ooc.writebehind")
	retryCount         = metrics.New("ooc.retry")
	faultInjectedCount = metrics.New("ooc.fault.injected")
)
