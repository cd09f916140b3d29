// Package ooc provides the out-of-core substrate for the paper's
// external-memory experiments (§4.1): a file-backed store of float64
// values with an in-RAM cache of configurable size M, transfer
// counters, and a disk-time model calibrated to the paper's Fujitsu
// MAP3735NC drive (10K RPM, 4.5 ms average seek, ~85 MB/s transfer)
// that converts transfer counts into the "I/O wait time" the paper
// plots in Figure 7 — the role STXXL plays in the paper.
//
// The store has two caching regimes over a striped set of backing
// files:
//
//   - The element regime: an LRU page cache of page (block) size B
//     with dirty write-back, serving ReadFloat/WriteFloat one value at
//     a time. Matrix/Rect/TiledRect adapt it to matrix.Grid[float64]
//     and matrix.Rect[float64], so every unmodified internal/core
//     engine runs out-of-core as-is.
//   - The tile regime: whole aligned quadrants of a Morton-tiled
//     matrix pinned into resident []float64 buffers
//     (PinTile/UnpinTile), faulted in on demand, with background
//     write-back of evicted dirty tiles — the only transfer that
//     overlaps compute. RunIGEP drives I-GEP at this granularity:
//     core.TileKernel runs every block shape (diagonal, B, C and D)
//     through the fused internal/core kernel of the op, directly on
//     resident tiles; it is bit-identical to the element path and to
//     the in-core engines, and one to two orders of magnitude faster
//     than the element path. Both ends of a run move whole tiles too:
//     LoadTiles and LoadFunc fill fresh pins (PinTileZero), and Unload
//     pins each tile once, copies its rows out and unpins it clean (a
//     row-major matrix, which has no tiles, unloads cell by cell).
//
// Tile transfers reuse their buffers. A clean tile that leaves the
// cache (evicted to make room, or by a sync) hands its Data to the next
// fault or fresh pin of the same size; a dirty victim's buffer stays
// with its write-behind task and is not reused. The encode, decode,
// payload and journal-record bytes of each transfer come from a
// sync.Pool, since write-behind tasks transfer concurrently. Neither
// the free buffers nor the pooled bytes count against
// Config.CacheSize, which bounds resident tiles only; resident plus
// free tile buffers never exceed the cache's peak residency.
//
// The two regimes are kept coherent conservatively: pinning a tile
// flushes and drops the pages overlapping it, and an element access
// while any tile state exists first syncs the tile cache (SyncTiles).
// Background tasks run on the internal/par runtime (Config.Runtime),
// bounded by Config.WriteBehind per stripe; the driver-facing API
// (element access, pin, sync) must be used from one goroutine at a
// time.
//
// The storage layer underneath is production-grade (see DESIGN.md
// §16): the logical byte space stripes RAID-0 style across
// Config.Stripes backing files in Config.StripeUnit chunks, every
// tile payload carries an XXH64 checksum verified on each fault-in
// (mismatches surface as ErrCorrupt with the tile's identity), and
// Config.Compress adds word-level zero-run compression with
// Stats.BytesLogical vs BytesPhysical keeping the §4.1 accounting
// honest. Stores created with CreateAt (or reopened with Open) are
// additionally durable: tile write-backs route through a write-ahead
// journal, Checkpoint commits a sync point with fsync barriers, and
// after a crash Recover discards any torn journal tail, replays
// committed-but-unapplied tiles, and reports the resumable frontier —
// RunOptions.CheckpointEvery/StartBlock turn that into killed runs
// that resume bit-identically (scripts/recovery-matrix.sh proves it
// by SIGKILLing real runs at every sync point).
//
// I/O failures never panic. APIs that can return errors do
// (PinTile, SyncTiles, Flush, Close, RunIGEP, Load, Unload); the
// element API, whose matrix.Grid signatures cannot, records the first
// failure in the store's sticky error (Err), like bufio.Scanner. Every
// raw transfer retries transient failures with exponential backoff
// (Config.MaxRetries, Config.RetryBackoff), and Config.FaultEvery
// injects deterministic failures for testing the error paths.
//
// Key types and entry points:
//
//   - Config / DefaultDisk / Store: the (M, B) cache geometry, disk
//     model and failure policy, plus the store itself; Stats and
//     IOTime report the transfer counters and modeled disk time that
//     feed the Figure 7 rows in BENCH_ooc.json.
//   - Matrix / NewMatrix with RowMajorLayout or MortonTiledLayout:
//     the Grid view over the store; Load/LoadTiles/LoadFunc/Unload
//     move whole matrices across the RAM boundary (by the tile when
//     the layout allows); Tiling/PinTile expose the tile regime when
//     the layout is tile-contiguous.
//   - RunIGEP / RunOptions: the tile-granular I-GEP driver.
//   - Rect / TiledRect: rectangular views used by C-GEP's auxiliary
//     buffers.
package ooc
