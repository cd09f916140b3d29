package ooc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Write-ahead journal: the recovery half of a durable store. Between
// sync points, tile write-backs never touch their home slots in the
// stripe files — each one appends a checksummed record to the journal
// and redirects the tile's metadata there (tileJournal). The home
// slots therefore always hold exactly the state of the last committed
// sync point, no matter where a crash lands. Checkpoint makes the next
// sync point durable with the classic redo protocol:
//
//	drain + journal every dirty tile → fsync journal
//	→ append COMMIT{tag} → fsync journal          (the commit point)
//	→ apply journal-resident tiles home → fsync stripes
//	→ reset the journal (atomic rename) with tag as its frontier
//
// A crash before the COMMIT record loses only the uncommitted epoch:
// the scanner discards the torn tail and the home slots still hold the
// previous sync point. A crash after COMMIT but mid-apply is repaired
// by redoing the apply — tile-record application is idempotent (same
// payload, same slot), so Recover simply applies every journal-
// resident tile of the committed prefix again and resets.
//
// File format (all integers little-endian; every structure carries a
// trailing XXH64 of its preceding bytes):
//
//	header   "GEPWAL01" ver u32, stripes u32, unit u32, metaCount u32,
//	         frontier i64, reserved u64, sum u64
//	         then metaCount 32-byte snapshot entries + their sum
//	T record 'T' pad3, side u32, off i64, flags u32, physLen u32,
//	         paySum u64, sum u64, then physLen payload bytes
//	C record 'C' pad7, frontier i64, sum u64
//
// The header's meta snapshot is the full tile-metadata table at reset
// time (all home-resident), so Open reconstructs integrity state
// without reading any tile. Record payloads are verified lazily — the
// scanner checks record headers only; paySum is checked when the
// payload is actually read (fault-in or apply), where a mismatch
// surfaces as *CorruptError.

const (
	journalMagic   = "GEPWAL01"
	journalVersion = 1
	journalName    = "journal.wal"
	stripePattern  = "stripe-%03d.dat"

	jhdrSize   = 48             // fixed header prefix
	jmetaSize  = 32             // one snapshot entry
	jtrecSize  = 40             // T record header
	jcrecSize  = 24             // C record
	maxTileLog = int64(1) << 32 // sanity bound on a tile's logical size
)

// errNotDurable rejects journal operations on stores without one.
var errNotDurable = errors.New("ooc: store has no journal (opened with Create, not CreateAt/Open)")

// journal is the write-ahead log of a durable store. Appends are
// serialized by mu because background write-back tasks journal their
// tiles concurrently with the driver.
type journal struct {
	f        *os.File
	path     string
	mu       sync.Mutex
	size     int64 // append position (end of the valid prefix)
	frontier int64 // last committed sync tag, -1 before the first
}

// appendTile appends one tile record and returns the payload's offset
// in the journal. Raw writes go through the store's retry/injection
// policy like every other transfer.
func (j *journal) appendTile(s *Store, off int64, side int, flags uint32, paySum uint64, payload []byte) (int64, error) {
	buf := getBytes(jtrecSize + len(payload))
	defer bytePool.Put(buf)
	rec := *buf
	clear(rec[:jtrecSize])
	rec[0] = 'T'
	binary.LittleEndian.PutUint32(rec[4:], uint32(side))
	binary.LittleEndian.PutUint64(rec[8:], uint64(off))
	binary.LittleEndian.PutUint32(rec[16:], flags)
	binary.LittleEndian.PutUint32(rec[20:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[24:], paySum)
	binary.LittleEndian.PutUint64(rec[32:], Checksum(rec[:32]))
	copy(rec[jtrecSize:], payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	pos := j.size
	if err := s.writeAtFile(j.f, rec, pos, off); err != nil {
		return 0, err
	}
	j.size = pos + int64(len(rec))
	s.stats.journalAppends.Add(1)
	s.stats.journalBytes.Add(int64(len(rec)))
	journalAppendCount.Inc()
	return pos + jtrecSize, nil
}

// appendCommit makes everything appended so far durable, then appends
// and fsyncs a COMMIT record carrying tag. After it returns, the sync
// point is recoverable.
func (j *journal) appendCommit(s *Store, tag int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ooc: journal sync: %w", err)
	}
	rec := make([]byte, jcrecSize)
	rec[0] = 'C'
	binary.LittleEndian.PutUint64(rec[8:], uint64(tag))
	binary.LittleEndian.PutUint64(rec[16:], Checksum(rec[:16]))
	if err := s.writeAtFile(j.f, rec, j.size, tag); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ooc: journal sync: %w", err)
	}
	j.size += jcrecSize
	j.frontier = tag
	s.stats.journalCommits.Add(1)
	s.stats.journalBytes.Add(jcrecSize)
	journalCommitCount.Inc()
	return nil
}

// reset replaces the journal with a fresh one whose header carries
// frontier and the full meta snapshot (all entries home-resident),
// using write-to-temp + fsync + atomic rename so a crash mid-reset
// leaves either the old journal or the new one, never a hybrid.
func (j *journal) reset(frontier int64, stripes, unit int, offs []int64, metas []tileMeta) error {
	hdr := encodeJournalHeader(frontier, stripes, unit, offs, metas)
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ooc: journal reset: %w", err)
	}
	if _, err := f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ooc: journal reset: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ooc: journal reset: %w", err)
	}
	syncDir(filepath.Dir(j.path))
	nf, err := os.OpenFile(j.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("ooc: journal reset: %w", err)
	}
	old := j.f
	j.f = nf
	j.size = int64(len(hdr))
	j.frontier = frontier
	old.Close()
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's entry is
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

func encodeJournalHeader(frontier int64, stripes, unit int, offs []int64, metas []tileMeta) []byte {
	n := jhdrSize + len(offs)*jmetaSize
	if len(offs) > 0 {
		n += 8
	}
	hdr := make([]byte, n)
	copy(hdr, journalMagic)
	binary.LittleEndian.PutUint32(hdr[8:], journalVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(stripes))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(unit))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(offs)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(frontier))
	binary.LittleEndian.PutUint64(hdr[40:], Checksum(hdr[:40]))
	for i, off := range offs {
		e := hdr[jhdrSize+i*jmetaSize:]
		m := metas[i]
		binary.LittleEndian.PutUint64(e, uint64(off))
		binary.LittleEndian.PutUint32(e[8:], uint32(m.side))
		binary.LittleEndian.PutUint32(e[12:], m.flags&^tileJournal)
		binary.LittleEndian.PutUint32(e[16:], uint32(m.physLen))
		binary.LittleEndian.PutUint64(e[24:], m.sum)
	}
	if len(offs) > 0 {
		region := hdr[jhdrSize : jhdrSize+len(offs)*jmetaSize]
		binary.LittleEndian.PutUint64(hdr[n-8:], Checksum(region))
	}
	return hdr
}

// jscan is the result of scanning a journal: the reconstructed
// metadata table as of the last committed sync point, plus where the
// valid prefix ends.
type jscan struct {
	stripes, unit int
	frontier      int64
	meta          map[int64]tileMeta
	end           int64 // end of the committed prefix; appends resume here
	torn          bool  // bytes past end existed but did not commit
	records       int   // committed tile records
}

// scanJournal parses a journal image. A corrupt header is fatal (the
// store's geometry is unknowable); anything wrong after it — torn
// record, bad checksum, truncation — just ends the committed prefix:
// uncommitted epochs are discarded by design. The fuzz target
// FuzzJournalReplay drives this on arbitrary bytes.
func scanJournal(r io.ReaderAt, size int64) (*jscan, error) {
	hdr := make([]byte, jhdrSize)
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, size), hdr); err != nil {
		return nil, fmt.Errorf("ooc: journal header: %w", err)
	}
	if string(hdr[:8]) != journalMagic {
		return nil, fmt.Errorf("ooc: journal header: bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != journalVersion {
		return nil, fmt.Errorf("ooc: journal version %d not supported", v)
	}
	if Checksum(hdr[:40]) != binary.LittleEndian.Uint64(hdr[40:]) {
		return nil, fmt.Errorf("ooc: journal header: checksum mismatch")
	}
	sc := &jscan{
		stripes:  int(binary.LittleEndian.Uint32(hdr[12:])),
		unit:     int(binary.LittleEndian.Uint32(hdr[16:])),
		frontier: int64(binary.LittleEndian.Uint64(hdr[24:])),
		meta:     make(map[int64]tileMeta),
	}
	if sc.stripes < 1 || sc.stripes > maxStripes || sc.unit < 8 || sc.unit%8 != 0 {
		return nil, fmt.Errorf("ooc: journal header: bad geometry: %d stripes, unit %d", sc.stripes, sc.unit)
	}
	metaCount := int64(binary.LittleEndian.Uint32(hdr[20:]))
	pos := int64(jhdrSize)
	if metaCount > 0 {
		regionLen := metaCount * jmetaSize
		if pos+regionLen+8 > size {
			return nil, fmt.Errorf("ooc: journal header: truncated meta snapshot")
		}
		region := make([]byte, regionLen)
		if _, err := r.ReadAt(region, pos); err != nil {
			return nil, fmt.Errorf("ooc: journal header: %w", err)
		}
		var sumb [8]byte
		if _, err := r.ReadAt(sumb[:], pos+regionLen); err != nil {
			return nil, fmt.Errorf("ooc: journal header: %w", err)
		}
		if Checksum(region) != binary.LittleEndian.Uint64(sumb[:]) {
			return nil, fmt.Errorf("ooc: journal header: meta snapshot checksum mismatch")
		}
		for i := int64(0); i < metaCount; i++ {
			e := region[i*jmetaSize:]
			off := int64(binary.LittleEndian.Uint64(e))
			m := tileMeta{
				side:    int(binary.LittleEndian.Uint32(e[8:])),
				flags:   binary.LittleEndian.Uint32(e[12:]) &^ tileJournal,
				physLen: int(binary.LittleEndian.Uint32(e[16:])),
				sum:     binary.LittleEndian.Uint64(e[24:]),
			}
			if !metaSane(off, m) {
				return nil, fmt.Errorf("ooc: journal header: invalid meta entry at %d", off)
			}
			sc.meta[off] = m
		}
		pos += regionLen + 8
	}
	sc.end = pos

	// Records: fold each epoch's tile records into the table only when
	// its COMMIT arrives.
	pending := make(map[int64]tileMeta)
	npending := 0
	for pos < size {
		var kind [1]byte
		if _, err := r.ReadAt(kind[:], pos); err != nil {
			break
		}
		switch kind[0] {
		case 'T':
			rec := make([]byte, jtrecSize)
			if pos+jtrecSize > size {
				pos = size // torn
				break
			}
			if _, err := r.ReadAt(rec, pos); err != nil {
				pos = size
				break
			}
			if Checksum(rec[:32]) != binary.LittleEndian.Uint64(rec[32:]) {
				pos = size
				break
			}
			off := int64(binary.LittleEndian.Uint64(rec[8:]))
			m := tileMeta{
				side:    int(binary.LittleEndian.Uint32(rec[4:])),
				flags:   binary.LittleEndian.Uint32(rec[16:]) | tileJournal,
				physLen: int(binary.LittleEndian.Uint32(rec[20:])),
				sum:     binary.LittleEndian.Uint64(rec[24:]),
				jpos:    pos + jtrecSize,
			}
			if !metaSane(off, m) || pos+jtrecSize+int64(m.physLen) > size {
				pos = size
				break
			}
			pending[off] = m
			npending++
			pos += jtrecSize + int64(m.physLen)
			continue
		case 'C':
			rec := make([]byte, jcrecSize)
			if pos+jcrecSize > size {
				pos = size
				break
			}
			if _, err := r.ReadAt(rec, pos); err != nil {
				pos = size
				break
			}
			if Checksum(rec[:16]) != binary.LittleEndian.Uint64(rec[16:]) {
				pos = size
				break
			}
			for off, m := range pending {
				sc.meta[off] = m
			}
			sc.records += npending
			pending = make(map[int64]tileMeta)
			npending = 0
			pos += jcrecSize
			sc.end = pos
			sc.frontier = int64(binary.LittleEndian.Uint64(rec[8:]))
			continue
		default:
			pos = size
		}
		break
	}
	sc.torn = pos > sc.end || len(pending) > 0
	return sc, nil
}

// metaSane bounds a decoded meta entry against structural invariants
// (defends the scanner and the fuzz target from hostile sizes).
func metaSane(off int64, m tileMeta) bool {
	if off < 0 || off%8 != 0 || m.side < 1 {
		return false
	}
	logical := int64(m.side) * int64(m.side) * 8
	if logical > maxTileLog {
		return false
	}
	if m.physLen < 1 || int64(m.physLen) > logical {
		return false
	}
	if m.flags&tileCompressed == 0 && int64(m.physLen) != logical {
		return false
	}
	return true
}

// RecoveryInfo reports what Store.Recover replayed.
type RecoveryInfo struct {
	// Frontier is the last committed sync tag — the point computation
	// can resume from (see RunOptions.StartBlock). -1 means no sync
	// point was ever committed: the store holds no durable computation
	// state and the run must start over.
	Frontier int64
	// Tiles is how many journal-resident tiles were applied to their
	// home slots.
	Tiles int
	// Bytes is the physical payload volume replayed.
	Bytes int64
	// Torn reports whether an uncommitted tail (a partially written
	// epoch) was found and discarded.
	Torn bool
}

// Recover replays the journal's committed prefix after a crash:
// every tile whose current payload still lives in the journal is
// checksum-verified and applied to its home slot, the stripe files are
// fsynced, and the journal is reset with its frontier intact. It
// returns the resumable frontier and what was replayed. Recover is
// idempotent — recovering an already-consistent store applies nothing.
func (s *Store) Recover() (RecoveryInfo, error) {
	if s.jr == nil {
		return RecoveryInfo{}, errNotDurable
	}
	info := RecoveryInfo{Frontier: s.jr.frontier, Torn: s.torn}
	offs := s.meta.journaled()
	for _, off := range offs {
		m, _ := s.meta.get(off)
		info.Bytes += int64(m.physLen)
	}
	info.Tiles = len(offs)
	if err := s.applyAndReset(); err != nil {
		return info, err
	}
	s.torn = false
	journalRecoverCount.Add(int64(info.Tiles))
	return info, nil
}

// Checkpoint makes the store durable at sync point tag: it drains all
// background I/O (reporting every failure, errors.Join-ed), journals
// every dirty resident tile and flushes dirty pages, commits the
// epoch, applies it to the stripe files, and resets the journal. After
// Checkpoint returns nil, a crash at any later moment recovers to
// exactly this state. Tags must be monotone; RunIGEP uses the count of
// completed base-case blocks. Checkpoint with pinned tiles is an error
// (their buffers are mid-update).
func (s *Store) Checkpoint(tag int64) error {
	if s.jr == nil {
		return errNotDurable
	}
	for _, t := range s.tc.tiles {
		if t.pins > 0 {
			return fmt.Errorf("ooc: Checkpoint with %d pinned tile(s)", s.pinnedTiles())
		}
	}
	var errs []error
	if err := s.syncTiles(false); err != nil {
		errs = append(errs, err)
	}
	if err := s.Flush(); err != nil {
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := s.jr.appendCommit(s, tag); err != nil {
		return err
	}
	return s.applyAndReset()
}

// pinnedTiles counts resident tiles with outstanding pins.
func (s *Store) pinnedTiles() int {
	n := 0
	for _, t := range s.tc.tiles {
		if t.pins > 0 {
			n++
		}
	}
	return n
}

// applyAndReset moves every journal-resident tile payload to its home
// slot (checksum-verified, parallel across stripes), fsyncs the stripe
// files, and resets the journal with the current frontier and meta
// snapshot. Idempotent: a crash anywhere inside redoes harmlessly.
func (s *Store) applyAndReset() error {
	offs := s.meta.journaled()
	if len(offs) > 0 {
		groups := make(map[int][]int64)
		for _, off := range offs {
			st := s.stripeOf(off)
			groups[st] = append(groups[st], off)
		}
		errs := make([]error, 0, len(groups))
		waits := make([]func(), 0, len(groups))
		errSlots := make([]error, len(groups))
		i := 0
		for _, g := range groups {
			g, slot := g, i
			waits = append(waits, s.spawn(func() {
				errSlots[slot] = s.applyGroup(g)
			}))
			i++
		}
		for _, w := range waits {
			w()
		}
		for _, err := range errSlots {
			if err != nil {
				errs = append(errs, err)
			}
		}
		if err := errors.Join(errs...); err != nil {
			return err
		}
		for _, off := range offs {
			m, _ := s.meta.get(off)
			m.flags &^= tileJournal
			m.jpos = 0
			s.meta.put(off, m)
		}
		s.stats.journalApplied.Add(int64(len(offs)))
		journalApplyCount.Add(int64(len(offs)))
	}
	if err := s.syncFiles(); err != nil {
		return fmt.Errorf("ooc: stripe sync: %w", err)
	}
	snapOffs, snapMetas := s.meta.snapshot()
	return s.jr.reset(s.jr.frontier, len(s.files), s.cfg.StripeUnit, snapOffs, snapMetas)
}

// applyGroup copies one stripe's journal-resident payloads home.
func (s *Store) applyGroup(offs []int64) error {
	for _, off := range offs {
		m, ok := s.meta.get(off)
		if !ok || m.flags&tileJournal == 0 {
			continue
		}
		buf := getBytes(m.physLen)
		err := s.readAtFile(s.jr.f, *buf, m.jpos, off)
		if err == nil {
			err = s.verify(off, m, *buf)
		}
		if err == nil {
			err = s.writeRaw(*buf, off)
		}
		bytePool.Put(buf)
		if err != nil {
			return err
		}
		s.stats.journalBytes.Add(int64(m.physLen))
	}
	return nil
}
