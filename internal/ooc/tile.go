package ooc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Tile-granular caching: the second, coarser regime of the store. The
// element API moves one float at a time through the page cache — four
// interface calls and a page-map probe per GEP update. The tile API
// instead faults whole aligned quadrants (one contiguous byte run in a
// Morton-tiled layout) into resident []float64 buffers that the fused
// kernels of internal/core run on directly, then writes dirty tiles
// back in the background while the engine computes the next block.
// That write-behind is the cache's only background task: every read
// is a demand fault, so a resident tile is always fully loaded.
//
// Transfer accounting is at tile granularity: one TileRead/TileWrite
// (one modeled seek plus size/rate, see Store.IOTime) per tile moved,
// mirroring §4.1's accounting of one block transfer per block moved —
// overlapping the transfer with compute changes wall-clock time, not
// the transfer count, so the Figure 7 I/O-complexity story is
// unchanged by the asynchrony. Compression splits each transfer's
// size into logical (always side²·8, what §4.1 counts) and physical
// (the encoded payload, what the disk moves); the transfer count
// itself never changes.
//
// Every tile payload that leaves RAM is checksummed (meta.go) and, on
// a durable store, journaled (journal.go) instead of written home;
// every fault-in verifies the recorded checksum and surfaces a
// mismatch as *CorruptError. Coherence with the page cache stays
// conservative: pinning a tile first flushes and drops every page
// overlapping its bytes, and element accesses route through the tile
// path whenever a checksummed tile covers them.
//
// Tile buffers are reused. A clean tile that leaves the cache (evicted
// by makeRoom or by syncTiles) puts its Data on the cache's free list,
// and the next tile the store makes (a fault or a fresh pin) takes the
// newest buffer there when it has the right size. Only a tile that is
// clean, unpinned and already out of the cache gives its buffer up: a
// dirty victim's buffer belongs to its write-behind task until the
// write ends and is left to the garbage collector. A buffer enters the
// list only by leaving the cache and leaves it only by re-entering it
// (or when a tile of another size drops the list), so resident plus
// free bytes never exceed the cache's peak residency. The byte scratch
// of every transfer comes from a sync.Pool (getBytes). Neither the
// free list nor the pool counts against Config.CacheSize.

// Tile is a pinned, resident quadrant of a store: Side()² float64
// values in row-major order in Data. A Tile is valid between the
// PinTile that returned it and the matching UnpinTile; the runtime
// layer (run.go) and the kernels mutate Data in place. After the
// UnpinTile, Data may be handed to another tile.
type Tile struct {
	off  int64 // byte offset of the quadrant in the store
	side int   // edge length in elements

	// Data holds the resident elements, row-major, len side².
	Data []float64

	dirty      bool
	pins       int
	prev, next *Tile // LRU links while resident and unpinned
}

// Side returns the tile's edge length in elements.
func (t *Tile) Side() int { return t.side }

// bytes returns the tile's resident size.
func (t *Tile) bytes() int64 { return int64(len(t.Data)) * 8 }

// pendingIO tracks one background write-back. wait joins it
// (executing it in-place if it is still queued, so a join can never
// hang on a stranded task); err is written by the task before it
// completes, so reading it after wait() is race-free.
type pendingIO struct {
	wait func()
	err  error
}

// tileCache is the tile half of a Store. All fields are owned by the
// driver goroutine; background tasks touch only their own buffers, the
// store's atomic counters, the metadata table (which has its own
// lock), the journal (likewise), and the err field of their own
// pendingIO.
type tileCache struct {
	budget      int64 // resident-byte budget (Config.CacheSize)
	writeBehind int   // per-stripe in-flight cap; <= 0 means synchronous

	tiles      map[int64]*Tile
	head, tail *Tile // unpinned-LRU, MRU at head
	bytes      int64 // resident bytes, pinned and unpinned

	pending  map[int64]*pendingIO // in-flight write-backs by offset
	inflight []chan struct{}      // per-stripe write-behind slots
	waits    []func()             // joins for every write-back spawned since the last sync

	free [][]float64 // buffers of clean tiles that left the cache, newest last
}

func (c *tileCache) init(cfg Config) {
	c.budget = cfg.CacheSize
	c.writeBehind = cfg.WriteBehind
	c.tiles = make(map[int64]*Tile)
	c.pending = make(map[int64]*pendingIO)
	if cfg.WriteBehind > 0 {
		c.inflight = make([]chan struct{}, cfg.Stripes)
		for i := range c.inflight {
			c.inflight[i] = make(chan struct{}, cfg.WriteBehind)
		}
	}
}

// newTile makes a tile for the quadrant at off on the newest free
// buffer when it has the tile's size, and on a fresh one otherwise. A
// reused buffer holds its last tile's data: zero clears it, and a read
// overwrites it. A free list of another size is dropped.
func (c *tileCache) newTile(off int64, side int, zero bool) *Tile {
	n := side * side
	var data []float64
	if k := len(c.free) - 1; k >= 0 && len(c.free[k]) == n {
		data = c.free[k]
		c.free[k] = nil
		c.free = c.free[:k]
		if zero {
			clear(data)
		}
	} else {
		c.free = nil
		data = make([]float64, n)
	}
	return &Tile{off: off, side: side, Data: data}
}

// recycle moves the buffer of t, a clean, unpinned tile already out of
// the cache, to the free list.
func (c *tileCache) recycle(t *Tile) {
	c.free = append(c.free, t.Data)
	t.Data = nil
}

func (c *tileCache) pushLRU(t *Tile) {
	t.next = c.head
	if c.head != nil {
		c.head.prev = t
	}
	c.head = t
	if c.tail == nil {
		c.tail = t
	}
}

func (c *tileCache) unlinkLRU(t *Tile) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		c.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		c.tail = t.prev
	}
	t.prev, t.next = nil, nil
}

// PinTile faults the side×side quadrant at byte offset off into a
// resident tile and pins it. Pins nest; every PinTile needs a matching
// UnpinTile. Pinned tiles are never evicted, so a caller holding the
// ≤4 tiles of one base-case block may exceed the cache budget
// transiently (counted by the ooc.tile.overcommit metric).
func (s *Store) PinTile(off int64, side int) (*Tile, error) { return s.pin(off, side, false) }

// PinTileZero pins the side×side quadrant at byte offset off as a
// zeroed resident tile WITHOUT reading it from disk: the caller
// declares the on-disk content irrelevant because it will fully
// overwrite the tile before unpinning. This is how the Strassen
// driver materializes product targets and recycled scratch tiles —
// a fresh tile costs no read transfer, so the §4.1 accounting charges
// scratch only for real spills (write-back and later re-read). The
// coherence walk is the same as PinTile's (join any in-flight
// write-back of the range — scratch offsets are recycled — then drop
// overlapping pages and make room); an already-resident tile is
// re-zeroed in place.
func (s *Store) PinTileZero(off int64, side int) (*Tile, error) { return s.pin(off, side, true) }

// pin is PinTile (zero false) and PinTileZero (zero true). A resident
// tile is pinned again, and cleared when zero; any other goes through
// the coherence walk and is read from disk, or cleared when zero.
func (s *Store) pin(off int64, side int, zero bool) (*Tile, error) {
	if t, ok := s.tc.tiles[off]; ok {
		if t.side != side {
			return nil, fmt.Errorf("ooc: tile at %d pinned with side %d, resident with side %d", off, side, t.side)
		}
		if t.pins == 0 {
			s.tc.unlinkLRU(t)
		}
		t.pins++
		if zero {
			clear(t.Data)
			tileFreshCount.Inc()
		} else {
			tileHitCount.Inc()
		}
		return t, nil
	}
	if !zero {
		tileFaultCount.Inc()
	}
	size := int64(side) * int64(side) * 8
	if err := s.waitPending(off); err != nil {
		return nil, err
	}
	if err := s.dropPages(off, size); err != nil {
		return nil, err
	}
	if err := s.makeRoom(size); err != nil {
		return nil, err
	}
	t := s.tc.newTile(off, side, zero)
	t.pins = 1
	if zero {
		tileFreshCount.Inc()
	} else if err := s.readTile(t); err != nil {
		return nil, err // the buffer goes with t, never into the cache
	}
	s.tc.tiles[off] = t
	s.tc.bytes += size
	return t, nil
}

// UnpinTile releases one pin; dirty reports whether the caller wrote
// Data. The tile stays resident (and, once unpinned, evictable — at
// which point a dirty tile is written back in the background).
func (s *Store) UnpinTile(t *Tile, dirty bool) {
	if t.pins <= 0 {
		panic("ooc: UnpinTile without matching PinTile")
	}
	if dirty {
		t.dirty = true
	}
	t.pins--
	if t.pins == 0 {
		s.tc.pushLRU(t)
	}
}

// waitPending joins an in-flight write-back of the byte range at off,
// surfacing its error.
func (s *Store) waitPending(off int64) error {
	p, ok := s.tc.pending[off]
	if !ok {
		return nil
	}
	p.wait()
	delete(s.tc.pending, off)
	return p.err
}

// makeRoom evicts unpinned LRU tiles until need bytes fit in the
// budget; dirty victims are written back in the background, and clean
// ones leave their buffers to the next new tile. When every resident
// tile is pinned, the caller overcommits instead (pinned tiles can
// never be evicted).
func (s *Store) makeRoom(need int64) error {
	c := &s.tc
	for c.bytes+need > c.budget {
		victim := c.tail
		if victim == nil {
			tileOvercommitCount.Inc()
			return nil
		}
		c.unlinkLRU(victim)
		delete(c.tiles, victim.off)
		c.bytes -= victim.bytes()
		if !victim.dirty {
			c.recycle(victim)
		} else if err := s.writeBehindTile(victim); err != nil {
			return err
		}
	}
	return nil
}

// writeBehindTile schedules the evicted tile's write-back on the slot
// of its home stripe. The tile is already out of the cache, so the
// background task owns its buffer exclusively. With asynchrony
// disabled the write happens inline.
func (s *Store) writeBehindTile(t *Tile) error {
	if s.tc.writeBehind <= 0 {
		return s.writeTile(t)
	}
	slot := s.tc.inflight[s.stripeOf(t.off)]
	for {
		select {
		case slot <- struct{}{}:
		default:
			if len(s.tc.waits) == 0 {
				// Slots full with nothing left to join: the slots were
				// leaked by spawns whose bodies an aborted runtime
				// dropped before releasing them. Write inline rather
				// than spin.
				return s.writeTile(t)
			}
			// This stripe's slots are full: join the oldest outstanding
			// task — the join executes it in place if it is still
			// queued — and retry. This bounds the driver's RAM overshoot
			// to Stripes×WriteBehind tiles without ever blocking on an
			// idle pool (every slot holder is in waits, so draining
			// always frees a slot eventually).
			s.drainOne()
			continue
		}
		break
	}
	p := &pendingIO{}
	s.tc.pending[t.off] = p
	p.wait = s.spawn(func() {
		defer func() { <-slot }()
		if err := s.writeTile(t); err != nil {
			p.err = err
			s.setErr(err)
		}
	})
	s.tc.waits = append(s.tc.waits, p.wait)
	writeBehindCount.Inc()
	return nil
}

// drainOne joins the oldest outstanding write-back.
func (s *Store) drainOne() {
	if len(s.tc.waits) == 0 {
		return
	}
	s.tc.waits[0]()
	s.tc.waits = s.tc.waits[1:]
}

// SyncTiles drains every write-back, writes every dirty unpinned
// resident tile back, and evicts all unpinned tiles, returning every
// error of the whole drain joined into one (errors.Join) — a
// multi-stripe failure reports every failed stripe, and errors.Is
// still matches the individual causes. After a successful SyncTiles
// the backing files (or, on a durable store, files plus journal) hold
// the complete current state. Tiles still pinned stay resident and are
// NOT written (their Data may be mid-update); the runtime never syncs
// with pins outstanding.
func (s *Store) SyncTiles() error {
	return s.syncTiles(true)
}

// syncTiles is SyncTiles with eviction optional: Checkpoint drains and
// writes back but keeps clean tiles resident, so a checkpoint does not
// empty the cache mid-run.
func (s *Store) syncTiles(evict bool) error {
	var errs []error
	for _, w := range s.tc.waits {
		w()
	}
	s.tc.waits = s.tc.waits[:0]
	for off, p := range s.tc.pending {
		if p.err != nil {
			errs = append(errs, p.err)
		}
		delete(s.tc.pending, off)
	}
	for off, t := range s.tc.tiles {
		if t.pins > 0 {
			continue
		}
		if t.dirty {
			if err := s.writeTile(t); err != nil {
				errs = append(errs, err)
			}
		}
		if evict {
			delete(s.tc.tiles, off)
			s.tc.bytes -= t.bytes()
			if !t.dirty {
				s.tc.recycle(t)
			}
		}
	}
	if evict {
		s.tc.head, s.tc.tail = nil, nil
		for _, t := range s.tc.tiles { // pinned survivors keep LRU out
			t.prev, t.next = nil, nil
		}
	}
	return errors.Join(errs...)
}

// ResidentTiles returns the number of tiles currently resident.
func (s *Store) ResidentTiles() int { return len(s.tc.tiles) }

// bytePool lends byte scratch to tile transfers: encode and decode
// buffers, payloads and journal records. Write-behind tasks transfer
// concurrently with the driver, so the buffers come
// from a sync.Pool rather than from the store, and each goes back
// only after its last use.
var bytePool sync.Pool

// getBytes borrows a buffer of length n from bytePool.
func getBytes(n int) *[]byte {
	if b, ok := bytePool.Get().(*[]byte); ok && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]byte, n)
	return &b
}

// readTile fills t.Data from disk (one modeled tile transfer),
// verifying the recorded checksum and decompressing when the payload
// is compressed. Quadrants never written through the tile path have
// no metadata and read raw (zero-filled past EOF, like pages).
func (s *Store) readTile(t *Tile) error {
	logical := int64(len(t.Data)) * 8
	m, ok := s.meta.get(t.off)
	var buf *[]byte
	if ok {
		raw, err := s.readTilePayload(t.off, m)
		if err != nil {
			return err
		}
		buf = raw
		s.stats.tileBytesRead.Add(int64(m.physLen))
	} else {
		buf = getBytes(int(logical))
		if err := s.readRaw(*buf, t.off); err != nil {
			bytePool.Put(buf)
			return err
		}
		s.stats.tileBytesRead.Add(logical)
	}
	b := *buf
	for i := range t.Data {
		t.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	bytePool.Put(buf)
	s.stats.tileReads.Add(1)
	s.stats.tileLogicalRead.Add(logical)
	return nil
}

// readTilePayload reads the physical payload recorded for the tile at
// off — from the journal when the current version lives there, the
// home slot otherwise — verifies its checksum, and returns the raw
// logical bytes (decompressed when needed) in a buffer borrowed from
// bytePool, which the caller puts back after its last use.
func (s *Store) readTilePayload(off int64, m tileMeta) (*[]byte, error) {
	payload := getBytes(m.physLen)
	var err error
	if m.flags&tileJournal != 0 {
		err = s.readAtFile(s.jr.f, *payload, m.jpos, off)
		s.stats.journalBytes.Add(int64(m.physLen))
	} else {
		err = s.readRaw(*payload, off)
	}
	if err == nil {
		err = s.verify(off, m, *payload)
	}
	if err != nil {
		bytePool.Put(payload)
		return nil, err
	}
	if m.flags&tileCompressed == 0 {
		return payload, nil
	}
	raw := getBytes(m.side * m.side * 8)
	err = zrleDecode(*raw, *payload)
	bytePool.Put(payload)
	if err != nil {
		bytePool.Put(raw)
		return nil, fmt.Errorf("ooc: tile at %d: %w", off, err)
	}
	return raw, nil
}

// writeTile encodes t.Data (one modeled tile transfer), checksums the
// payload, and persists it — appended to the journal on a durable
// store, written to the home slot otherwise — then records the tile's
// metadata and marks it clean.
func (s *Store) writeTile(t *Tile) error {
	logical := len(t.Data) * 8
	buf := getBytes(logical)
	defer bytePool.Put(buf)
	raw := *buf
	for i, v := range t.Data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	payload := raw
	var flags uint32
	if s.cfg.Compress {
		if enc := zrleEncode(raw); enc != nil {
			payload = enc
			flags |= tileCompressed
			compressSavedCount.Add(int64(logical - len(enc)))
		}
	}
	sum := Checksum(payload)
	m := tileMeta{side: t.side, physLen: len(payload), flags: flags, sum: sum}
	if s.jr != nil {
		jpos, err := s.jr.appendTile(s, t.off, t.side, flags, sum, payload)
		if err != nil {
			return err
		}
		m.flags |= tileJournal
		m.jpos = jpos
	} else {
		if err := s.writeRaw(payload, t.off); err != nil {
			return err
		}
	}
	s.meta.put(t.off, m)
	s.stats.tileWrites.Add(1)
	s.stats.tileBytesWritten.Add(int64(len(payload)))
	s.stats.tileLogicalWritten.Add(int64(logical))
	t.dirty = false
	return nil
}
