package ooc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gep/internal/par"
)

// Config fixes the cache geometry, the disk model, the striping and
// durability layout, and the failure policy of a Store.
type Config struct {
	// PageSize is B, the block transfer size in bytes.
	PageSize int
	// CacheSize is M, the RAM budget in bytes; the store keeps at most
	// CacheSize/PageSize pages resident, and the tile cache (tile.go)
	// keeps at most CacheSize bytes of unpinned tiles resident.
	CacheSize int64
	// SeekTime is charged per transfer (default 4.5 ms, the paper's
	// disk).
	SeekTime time.Duration
	// TransferRate in bytes/second (default 85 MB/s, mid-range of the
	// paper's disk's 64.1-107.86 MB/s).
	TransferRate float64

	// Stripes is the number of backing files the logical byte space is
	// striped across, RAID-0 style (0 means 1 — the legacy single-file
	// layout; see stripe.go). Each stripe gets its own write-behind
	// in-flight slots, so background write-back parallelism scales with
	// the stripe count.
	Stripes int
	// StripeUnit is the striping chunk size in bytes (0 means 64 KiB;
	// must be a multiple of 8). Tiles no larger than the unit map to a
	// single stripe segment.
	StripeUnit int

	// Compress enables zrle compression of tile payloads (compress.go).
	// Incompressible tiles are stored raw, so physical I/O never
	// exceeds logical; Stats.BytesLogical vs BytesPhysical report the
	// split.
	Compress bool

	// Runtime is the par runtime background tasks (write-behind,
	// journal apply) spawn on; nil uses the package-level default
	// runtime. A server hosting several stores gives each job's store
	// its own runtime for isolation.
	Runtime *par.Runtime

	// MaxRetries is how many times a failed raw transfer is retried
	// before the error propagates to the caller (0 means the default of
	// 3; negative disables retries). Each retry sleeps RetryBackoff,
	// doubling per attempt.
	MaxRetries int
	// RetryBackoff is the initial wait before the first retry (0 means
	// the default of 100 µs).
	RetryBackoff time.Duration

	// FaultEvery, when positive, makes every FaultEvery-th raw disk
	// transfer fail with ErrInjected before touching the file. It is the
	// fault-injection hook the error-path tests use to prove that I/O
	// failures surface as errors — never panics or hangs — through every
	// layer (page cache, tile cache, write-behind, journal, engines).
	// Zero disables injection.
	FaultEvery int64

	// WriteBehind bounds the number of concurrently in-flight background
	// tile write-backs per stripe (0 means the default of 4; negative
	// forces synchronous write-back). Each in-flight write pins one
	// tile-sized buffer beyond CacheSize, so the worst-case RAM
	// overshoot is Stripes×WriteBehind tiles.
	WriteBehind int
}

const (
	defaultMaxRetries   = 3
	defaultRetryBackoff = 100 * time.Microsecond
	defaultWriteBehind  = 4
	maxRetryBackoff     = 50 * time.Millisecond
	maxStripes          = 64
)

// DefaultDisk is the paper's Fujitsu MAP3735NC model.
func DefaultDisk() Config {
	return Config{
		PageSize:     1 << 16,
		CacheSize:    1 << 24,
		SeekTime:     4500 * time.Microsecond,
		TransferRate: 85e6,
	}
}

// Stats is a snapshot of the I/O counters of a Store.
type Stats struct {
	PageReads  int64 // pages faulted in from disk
	PageWrites int64 // dirty pages written back
	Hits       int64 // element accesses served from the page cache
	Faults     int64 // element accesses that required a page read
	TileReads  int64 // whole tiles faulted into the tile cache
	TileWrites int64 // dirty tiles written back
	Retries    int64 // raw transfers retried after a failure
	Injected   int64 // failures injected by Config.FaultEvery

	// BytesLogical and BytesPhysical split the tile-payload traffic:
	// logical is what the computation moved (side²·8 per tile
	// transfer, the §4.1 accounting), physical is what the disk moved
	// after compression. Without compression the two are equal.
	BytesLogical  int64
	BytesPhysical int64

	ChecksumOK   int64 // tile payloads verified on fault-in/replay
	ChecksumFail int64 // payloads that failed verification (ErrCorrupt)

	JournalAppends int64 // tile records appended to the journal
	JournalCommits int64 // sync points committed
	JournalApplied int64 // journal-resident tiles applied home
	JournalBytes   int64 // journal traffic (records + replay reads)
}

// storeStats holds the live counters. Atomics, because background
// write-behind tasks count their transfers concurrently with the
// driver goroutine.
type storeStats struct {
	pageReads, pageWrites, hits, faults atomic.Int64
	tileReads, tileWrites               atomic.Int64
	tileBytesRead, tileBytesWritten     atomic.Int64
	tileLogicalRead, tileLogicalWritten atomic.Int64
	retries, injected                   atomic.Int64
	checksumOK, checksumFail            atomic.Int64
	journalAppends, journalCommits      atomic.Int64
	journalApplied, journalBytes        atomic.Int64
}

// Store is a file-backed float64 array with two caching regimes: an
// LRU page cache serving the element API (ReadFloat/WriteFloat, the
// matrix.Grid path), and a tile cache (tile.go) serving whole-quadrant
// Pin/Unpin for the tile-granular out-of-core runtime. The byte
// space is striped across one or more backing files (stripe.go), every
// tile payload is checksummed (meta.go) and optionally compressed
// (compress.go), and durable stores (CreateAt/Open) additionally run
// tile write-backs through a write-ahead journal (journal.go) so a
// killed run resumes from its last sync point via Recover.
//
// The two caching regimes are kept coherent: pinning a tile flushes
// and drops the pages it overlaps, and element accesses route through
// the verified tile path whenever a checksummed tile covers their
// offset (falling back to the page path elsewhere).
//
// The element API and the tile API must be driven from one goroutine
// (the engine's); the store's own background tasks (write-behind,
// journal apply) are internally synchronized.
type Store struct {
	files   []*os.File // stripe files (len 1 without striping)
	dir     string     // durable store directory ("" for temp stores)
	own     bool       // files created by us, removed on Close
	cfg     Config
	maxPage int

	pages      map[int64]*page
	head, tail *page // MRU at head

	ioOps int64 // raw-transfer counter driving FaultEvery (atomic)

	stats storeStats

	errMu sync.Mutex
	err   error // first I/O error observed (sticky; see Err)

	meta metaTable
	jr   *journal // nil for non-durable stores
	torn bool     // Open found an uncommitted journal tail

	tc tileCache
}

type page struct {
	id         int64
	data       []byte
	dirty      bool
	prev, next *page
}

// resolve applies Config defaults and validates the geometry.
func (cfg *Config) resolve() (maxPage int, err error) {
	if cfg.PageSize <= 0 || cfg.PageSize%8 != 0 {
		return 0, fmt.Errorf("ooc: page size %d must be a positive multiple of 8", cfg.PageSize)
	}
	maxPage = int(cfg.CacheSize / int64(cfg.PageSize))
	if maxPage < 1 {
		return 0, fmt.Errorf("ooc: cache size %d holds no %d-byte page", cfg.CacheSize, cfg.PageSize)
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = 1
	}
	if cfg.Stripes < 1 || cfg.Stripes > maxStripes {
		return 0, fmt.Errorf("ooc: stripe count %d out of range [1, %d]", cfg.Stripes, maxStripes)
	}
	if cfg.StripeUnit == 0 {
		cfg.StripeUnit = defaultStripeUnit
	}
	if cfg.StripeUnit < 8 || cfg.StripeUnit%8 != 0 {
		return 0, fmt.Errorf("ooc: stripe unit %d must be a positive multiple of 8", cfg.StripeUnit)
	}
	if cfg.SeekTime == 0 {
		cfg.SeekTime = 4500 * time.Microsecond
	}
	if cfg.TransferRate == 0 {
		cfg.TransferRate = 85e6
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = defaultMaxRetries
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = defaultRetryBackoff
	}
	if cfg.WriteBehind == 0 {
		cfg.WriteBehind = defaultWriteBehind
	}
	return maxPage, nil
}

func newStore(files []*os.File, dir string, own bool, cfg Config, maxPage int) *Store {
	s := &Store{
		files:   files,
		dir:     dir,
		own:     own,
		cfg:     cfg,
		maxPage: maxPage,
		pages:   make(map[int64]*page, maxPage+1),
	}
	s.meta.init()
	s.tc.init(cfg)
	return s
}

// Create makes a non-durable store backed by fresh temporary files in
// dir (or the default temp dir when dir is empty) — one per stripe,
// removed on Close. Tile payloads are checksummed (and compressed when
// Config.Compress is set) but there is no journal; for crash-
// recoverable stores use CreateAt.
func Create(dir string, cfg Config) (*Store, error) {
	maxPage, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	files := make([]*os.File, cfg.Stripes)
	for i := range files {
		f, err := os.CreateTemp(dir, "gep-ooc-*.dat")
		if err != nil {
			for _, g := range files[:i] {
				g.Close()
				os.Remove(g.Name())
			}
			return nil, fmt.Errorf("ooc: %w", err)
		}
		files[i] = f
	}
	return newStore(files, "", true, cfg, maxPage), nil
}

// CreateAt makes a durable store in directory dir (created if
// missing, which must not already hold a store): Config.Stripes
// backing files plus a write-ahead journal. The files survive Close;
// a crashed process reopens the directory with Open and resumes via
// Recover. The stripe geometry is recorded in the journal header, so
// Open needs no geometry in its Config.
func CreateAt(dir string, cfg Config) (*Store, error) {
	maxPage, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); err == nil {
		return nil, fmt.Errorf("ooc: %s already holds a store (use Open)", dir)
	}
	files := make([]*os.File, cfg.Stripes)
	for i := range files {
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf(stripePattern, i)),
			os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if err != nil {
			for _, g := range files[:i] {
				g.Close()
			}
			return nil, fmt.Errorf("ooc: %w", err)
		}
		files[i] = f
	}
	s := newStore(files, dir, false, cfg, maxPage)
	s.jr = &journal{path: filepath.Join(dir, journalName), frontier: -1}
	hdr := encodeJournalHeader(-1, cfg.Stripes, cfg.StripeUnit, nil, nil)
	jf, err := os.OpenFile(s.jr.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err == nil {
		if _, werr := jf.Write(hdr); werr == nil {
			err = jf.Sync()
		} else {
			err = werr
		}
	}
	if err != nil {
		s.closeFiles(false)
		return nil, fmt.Errorf("ooc: %w", err)
	}
	syncDir(dir)
	s.jr.f = jf
	s.jr.size = int64(len(hdr))
	return s, nil
}

// Open reopens a durable store created by CreateAt, reconstructing
// the tile-metadata table from the journal (committed epochs only; a
// torn uncommitted tail is discarded). cfg supplies the cache
// geometry and policies; the stripe geometry comes from the journal
// header (a non-zero cfg.Stripes/StripeUnit that disagrees is an
// error). Call Recover next to compact the journal and learn the
// resumable frontier.
func Open(dir string, cfg Config) (*Store, error) {
	jpath := filepath.Join(dir, journalName)
	jf, err := os.OpenFile(jpath, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	st, err := jf.Stat()
	if err != nil {
		jf.Close()
		return nil, fmt.Errorf("ooc: %w", err)
	}
	sc, err := scanJournal(jf, st.Size())
	if err != nil {
		jf.Close()
		return nil, err
	}
	if cfg.Stripes != 0 && cfg.Stripes != sc.stripes {
		jf.Close()
		return nil, fmt.Errorf("ooc: store has %d stripes, config says %d", sc.stripes, cfg.Stripes)
	}
	if cfg.StripeUnit != 0 && cfg.StripeUnit != sc.unit {
		jf.Close()
		return nil, fmt.Errorf("ooc: store has stripe unit %d, config says %d", sc.unit, cfg.StripeUnit)
	}
	cfg.Stripes, cfg.StripeUnit = sc.stripes, sc.unit
	maxPage, err := cfg.resolve()
	if err != nil {
		jf.Close()
		return nil, err
	}
	files := make([]*os.File, cfg.Stripes)
	for i := range files {
		f, ferr := os.OpenFile(filepath.Join(dir, fmt.Sprintf(stripePattern, i)), os.O_RDWR, 0)
		if ferr != nil {
			jf.Close()
			for _, g := range files[:i] {
				g.Close()
			}
			return nil, fmt.Errorf("ooc: %w", ferr)
		}
		files[i] = f
	}
	s := newStore(files, dir, false, cfg, maxPage)
	for off, m := range sc.meta {
		s.meta.put(off, m)
	}
	s.jr = &journal{f: jf, path: jpath, size: sc.end, frontier: sc.frontier}
	s.torn = sc.torn
	return s, nil
}

// Config returns the store's configuration (with defaults resolved).
func (s *Store) Config() Config { return s.cfg }

// Frontier returns the last committed sync tag of a durable store
// (-1 before the first Checkpoint) — the resume point Recover reports.
func (s *Store) Frontier() int64 {
	if s.jr == nil {
		return -1
	}
	return s.jr.frontier
}

// spawn forks f from a root of the store's configured runtime (or the
// package default) and returns its join.
func (s *Store) spawn(f func()) func() {
	rt := par.Or(s.cfg.Runtime)
	if rt.Aborted() {
		// An aborted runtime drops spawned bodies, which would leak the
		// in-flight slot the closure is responsible for releasing. Run
		// inline instead: the store's accounting stays sound while the
		// driver's Stop poll winds the run down (the job's output is
		// discarded anyway).
		f()
		return func() {}
	}
	return rt.Root().Spawn(func(par.Ctx) { f() })
}

// Stats returns a snapshot of the I/O counters.
func (s *Store) Stats() Stats {
	return Stats{
		PageReads:      s.stats.pageReads.Load(),
		PageWrites:     s.stats.pageWrites.Load(),
		Hits:           s.stats.hits.Load(),
		Faults:         s.stats.faults.Load(),
		TileReads:      s.stats.tileReads.Load(),
		TileWrites:     s.stats.tileWrites.Load(),
		Retries:        s.stats.retries.Load(),
		Injected:       s.stats.injected.Load(),
		BytesLogical:   s.stats.tileLogicalRead.Load() + s.stats.tileLogicalWritten.Load(),
		BytesPhysical:  s.stats.tileBytesRead.Load() + s.stats.tileBytesWritten.Load(),
		ChecksumOK:     s.stats.checksumOK.Load(),
		ChecksumFail:   s.stats.checksumFail.Load(),
		JournalAppends: s.stats.journalAppends.Load(),
		JournalCommits: s.stats.journalCommits.Load(),
		JournalApplied: s.stats.journalApplied.Load(),
		JournalBytes:   s.stats.journalBytes.Load(),
	}
}

// ResetStats zeroes the counters (cache contents are kept). It first
// joins the write-backs still in flight, so no transfer started before
// the reset is counted after it.
func (s *Store) ResetStats() {
	for _, w := range s.tc.waits {
		w()
	}
	s.tc.waits = s.tc.waits[:0]
	s.stats = storeStats{}
}

// IOTime returns the modeled disk time for the transfers counted so
// far: every transfer — page or tile — pays one seek plus its size
// over the transfer rate. Tile transfers are charged their physical
// (post-compression) size: compression buys modeled transfer time,
// while the logical §4.1 transfer count (TileReads/TileWrites) is
// unchanged.
func (s *Store) IOTime() time.Duration {
	pages := s.stats.pageReads.Load() + s.stats.pageWrites.Load()
	tiles := s.stats.tileReads.Load() + s.stats.tileWrites.Load()
	bytes := float64(pages)*float64(s.cfg.PageSize) +
		float64(s.stats.tileBytesRead.Load()+s.stats.tileBytesWritten.Load())
	transfer := bytes / s.cfg.TransferRate
	return time.Duration(pages+tiles)*s.cfg.SeekTime + time.Duration(transfer*float64(time.Second))
}

// Err returns the first I/O error the store has observed, from any
// path: a failed element access (whose API cannot return errors — the
// matrix.Grid contract) or a failed background write-back. It is
// sticky, like (*bufio.Scanner).Err: the first error is kept (an
// individual failed read returns 0, a failed write is dropped, and
// later accesses still proceed normally), so callers check Err once
// after a run rather than after every access.
func (s *Store) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// setErr records err as the sticky error if none is recorded yet.
func (s *Store) setErr(err error) {
	if err == nil {
		return
	}
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// ReadFloat returns the float64 stored at byte offset off (8-aligned).
// Unwritten regions read as zero. Offsets covered by a checksummed
// tile are served through the verified tile path; elsewhere the page
// cache serves them raw. On I/O failure it returns 0 and records the
// error for Err.
func (s *Store) ReadFloat(off int64) float64 {
	if v, handled := s.elementViaTile(off, false, 0); handled {
		return v
	}
	p, err := s.fault(off / int64(s.cfg.PageSize))
	if err != nil {
		s.setErr(err)
		return 0
	}
	bits := binary.LittleEndian.Uint64(p.data[off%int64(s.cfg.PageSize):])
	return math.Float64frombits(bits)
}

// WriteFloat stores v at byte offset off (8-aligned). On I/O failure
// the write is dropped and the error recorded for Err.
func (s *Store) WriteFloat(off int64, v float64) {
	if _, handled := s.elementViaTile(off, true, v); handled {
		return
	}
	p, err := s.fault(off / int64(s.cfg.PageSize))
	if err != nil {
		s.setErr(err)
		return
	}
	binary.LittleEndian.PutUint64(p.data[off%int64(s.cfg.PageSize):], math.Float64bits(v))
	p.dirty = true
}

// elementViaTile serves an element access through the tile path when a
// checksummed tile covers off (so the access is verified and sees
// compressed/journaled payloads correctly). It reports handled=false
// when no tile covers off and the caller should use the page path;
// before deciding, any live tile-cache state is synced so a dirty
// resident tile covering off becomes visible as meta. With no
// resident, pending or waited-on tile there is nothing to sync and no
// background task that could change the table, so the first lookup
// stands.
func (s *Store) elementViaTile(off int64, write bool, v float64) (float64, bool) {
	mo, m, ok := s.meta.covering(off)
	if !ok {
		if len(s.tc.tiles) == 0 && len(s.tc.pending) == 0 && len(s.tc.waits) == 0 {
			return 0, false
		}
		if err := s.SyncTiles(); err != nil {
			s.setErr(err)
			return 0, true
		}
		if mo, m, ok = s.meta.covering(off); !ok {
			return 0, false
		}
	}
	t, err := s.PinTile(mo, m.side)
	if err != nil {
		s.setErr(err)
		return 0, true
	}
	i := (off - mo) / 8
	var out float64
	if write {
		t.Data[i] = v
	} else {
		out = t.Data[i]
	}
	s.UnpinTile(t, write)
	return out, true
}

// fault returns the resident page id, loading and evicting as needed.
// Eviction is failure-atomic: the victim leaves the cache only after
// its dirty data is safely on disk, so a failed write-back loses
// nothing — the victim stays resident and dirty, and the error
// propagates.
func (s *Store) fault(id int64) (*page, error) {
	if p, ok := s.pages[id]; ok {
		s.stats.hits.Add(1)
		s.moveToFront(p)
		return p, nil
	}
	s.stats.faults.Add(1)
	var buf []byte
	if len(s.pages) >= s.maxPage {
		victim := s.tail
		if victim.dirty {
			if err := s.writePage(victim); err != nil {
				return nil, err
			}
		}
		s.unlink(victim)
		delete(s.pages, victim.id)
		buf = victim.data
	} else {
		buf = make([]byte, s.cfg.PageSize)
	}
	p := &page{id: id, data: buf}
	if err := s.readPage(p); err != nil {
		return nil, err
	}
	s.pages[id] = p
	s.pushFront(p)
	return p, nil
}

func (s *Store) readPage(p *page) error {
	s.stats.pageReads.Add(1)
	return s.readRaw(p.data, p.id*int64(s.cfg.PageSize))
}

// writePage writes a dirty page's raw bytes home. If checksummed
// tiles overlap the page's range, their meta entries are first
// materialized away (materializeRaw): the raw page bytes would
// otherwise invalidate recorded checksums or be shadowed by
// journal-resident payloads.
func (s *Store) writePage(p *page) error {
	if !s.meta.empty() {
		if err := s.materializeRaw(p); err != nil {
			return err
		}
	}
	s.stats.pageWrites.Add(1)
	if err := s.writeRaw(p.data, p.id*int64(s.cfg.PageSize)); err != nil {
		return err
	}
	p.dirty = false
	return nil
}

// materializeRaw converts every checksummed tile overlapping page p's
// byte range back to plain raw home storage: the payload is read from
// wherever it lives (journal or home), verified, decompressed, and
// written home raw; the page's overlapped bytes are refreshed from it
// (they may predate the tile's write-back); and the meta entry is
// deleted — the region becomes ordinary unverified page territory.
func (s *Store) materializeRaw(p *page) error {
	ps := int64(s.cfg.PageSize)
	pstart := p.id * ps
	for _, mo := range s.meta.overlapping(pstart, ps) {
		m, ok := s.meta.get(mo)
		if !ok {
			continue
		}
		logical := int64(m.side) * int64(m.side) * 8
		buf, err := s.readTilePayload(mo, m)
		if err != nil {
			return err
		}
		raw := *buf
		if m.flags&(tileCompressed|tileJournal) != 0 {
			if err := s.writeRaw(raw, mo); err != nil {
				bytePool.Put(buf)
				return err
			}
		}
		lo, hi := max64(mo, pstart), min64(mo+logical, pstart+ps)
		copy(p.data[lo-pstart:hi-pstart], raw[lo-mo:hi-mo])
		bytePool.Put(buf) // raw's last use
		s.meta.delete(mo)
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Flush writes back every dirty resident page. It attempts every page
// and returns all errors, joined.
func (s *Store) Flush() error {
	var errs []error
	for p := s.head; p != nil; p = p.next {
		if p.dirty {
			if err := s.writePage(p); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// dropPages flushes and evicts every resident page overlapping the
// byte range [off, off+n) — the page half of the page/tile coherence
// protocol: before a tile is faulted in, no page may hold a newer or
// soon-stale copy of its bytes.
func (s *Store) dropPages(off, n int64) error {
	if n <= 0 || len(s.pages) == 0 {
		return nil
	}
	ps := int64(s.cfg.PageSize)
	for id := off / ps; id <= (off+n-1)/ps; id++ {
		p, ok := s.pages[id]
		if !ok {
			continue
		}
		if p.dirty {
			if err := s.writePage(p); err != nil {
				return err
			}
		}
		s.unlink(p)
		delete(s.pages, id)
	}
	return nil
}

// Close flushes both caches, commits a final sync point on durable
// stores, closes, and (for temporary stores) removes the backing
// files. It returns the errors of the flush → commit → close → remove
// sequence, joined; a flush failure does not stop the close.
func (s *Store) Close() error {
	var errs []error
	if err := s.SyncTiles(); err != nil {
		errs = append(errs, err)
	}
	s.tc.free = nil
	if err := s.Flush(); err != nil {
		errs = append(errs, err)
	}
	if s.jr != nil && errors.Join(errs...) == nil {
		if err := s.Checkpoint(s.jr.frontier); err != nil {
			errs = append(errs, err)
		}
	}
	if s.jr != nil {
		if err := s.jr.f.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.closeFiles(s.own); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Abandon closes the store's file handles without flushing any cached
// state — the in-process equivalent of SIGKILL, for crash drills: the
// on-disk state is whatever earlier writes and fsyncs made durable.
// The backing files are kept even for temporary stores. The store
// must not be used afterwards.
func (s *Store) Abandon() {
	// Join background tasks so no write lands after the handles close.
	for _, w := range s.tc.waits {
		w()
	}
	s.tc.waits = s.tc.waits[:0]
	if s.jr != nil {
		s.jr.f.Close()
	}
	s.closeFiles(false)
}

// Resident returns the number of pages currently cached.
func (s *Store) Resident() int { return len(s.pages) }

func (s *Store) moveToFront(p *page) {
	if s.head == p {
		return
	}
	s.unlink(p)
	s.pushFront(p)
}

func (s *Store) unlink(p *page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		s.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		s.tail = p.prev
	}
	p.prev, p.next = nil, nil
}

func (s *Store) pushFront(p *page) {
	p.next = s.head
	if s.head != nil {
		s.head.prev = p
	}
	s.head = p
	if s.tail == nil {
		s.tail = p
	}
}
