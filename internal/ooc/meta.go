package ooc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Tile metadata: the integrity layer's source of truth. Every tile
// write-back records a tileMeta — the payload's length, checksum,
// whether it is compressed, and whether it currently lives in the
// journal (journal.go) or in its home slot in the stripe files. Tile
// fault-ins consult it to know how many physical bytes to read, where
// from, and what XXH64 sum they must carry; element accesses consult
// it to route offsets covered by a checksummed tile through the
// verified tile path instead of the raw page path.
//
// The table is keyed by the tile's logical byte offset. It is touched
// by background write-back tasks concurrently with the driver, so all
// access goes through the metaMu mutex; the sorted-offset covering
// index is rebuilt lazily (it is only needed on the element path and
// on page write-back, both rare during tile-granular runs).

// ErrCorrupt is the sentinel wrapped by every checksum-verification
// failure. Match with errors.Is; the full error is a *CorruptError
// carrying the tile's identity.
var ErrCorrupt = errors.New("ooc: tile checksum mismatch")

// CorruptError reports a tile whose payload failed checksum
// verification on fault-in (or journal replay). It wraps ErrCorrupt.
type CorruptError struct {
	// Off is the tile's logical byte offset in the store.
	Off int64
	// Side is the tile's edge length in elements.
	Side int
	// Stripe is the backing file holding the tile's first byte.
	Stripe int
	// Want and Got are the recorded and computed XXH64 sums.
	Want, Got uint64
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("ooc: tile at %d (side %d, stripe %d): checksum mismatch: want %016x got %016x",
		e.Off, e.Side, e.Stripe, e.Want, e.Got)
}

// Unwrap lets errors.Is(err, ErrCorrupt) match.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// verify checks payload, the physical bytes of the tile at off,
// against the sum m records, counting the outcome.
func (s *Store) verify(off int64, m tileMeta, payload []byte) error {
	if got := Checksum(payload); got != m.sum {
		checksumFailCount.Inc()
		s.stats.checksumFail.Add(1)
		return &CorruptError{Off: off, Side: m.side, Stripe: s.stripeOf(off), Want: m.sum, Got: got}
	}
	checksumOKCount.Inc()
	s.stats.checksumOK.Add(1)
	return nil
}

const (
	// tileCompressed marks a zrle-encoded payload (compress.go).
	tileCompressed uint32 = 1 << iota
	// tileJournal marks a payload whose current version lives in the
	// journal at jpos, not yet applied to its home slot.
	tileJournal
)

// tileMeta describes one checksummed tile payload.
type tileMeta struct {
	side    int    // tile edge in elements
	physLen int    // payload bytes on disk
	flags   uint32 // tileCompressed | tileJournal
	sum     uint64 // XXH64 of the physical payload
	jpos    int64  // payload offset in the journal (tileJournal only)
}

// metaTable is the concurrent tile-metadata map plus its lazily
// rebuilt covering index.
type metaTable struct {
	mu  sync.Mutex
	m   map[int64]tileMeta
	idx []int64 // sorted offsets; nil when stale
	// n is len(m), stored under mu by put and delete and read without
	// it by empty and covering: the element path asks covering once or
	// twice per access, and on a store that never used the tile path
	// the answer is "not covered" without a mutex round-trip.
	n atomic.Int64
}

func (mt *metaTable) init() { mt.m = make(map[int64]tileMeta) }

// put records meta for the tile at off.
func (mt *metaTable) put(off int64, m tileMeta) {
	mt.mu.Lock()
	if _, ok := mt.m[off]; !ok {
		mt.idx = nil
	}
	mt.m[off] = m
	mt.n.Store(int64(len(mt.m)))
	mt.mu.Unlock()
}

// get returns the meta recorded for the tile at off.
func (mt *metaTable) get(off int64) (tileMeta, bool) {
	mt.mu.Lock()
	m, ok := mt.m[off]
	mt.mu.Unlock()
	return m, ok
}

// delete removes the entry at off.
func (mt *metaTable) delete(off int64) {
	mt.mu.Lock()
	if _, ok := mt.m[off]; ok {
		delete(mt.m, off)
		mt.idx = nil
		mt.n.Store(int64(len(mt.m)))
	}
	mt.mu.Unlock()
}

// empty reports whether the table has no entries. It is the fast-path
// guard on the element API: a store that never used the tile path
// pays one atomic load.
func (mt *metaTable) empty() bool { return mt.n.Load() == 0 }

// covering returns the tile whose logical byte range contains off.
func (mt *metaTable) covering(off int64) (int64, tileMeta, bool) {
	if mt.empty() {
		return 0, tileMeta{}, false
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	idx := mt.index()
	i := sort.Search(len(idx), func(i int) bool { return idx[i] > off })
	if i == 0 {
		return 0, tileMeta{}, false
	}
	mo := idx[i-1]
	m := mt.m[mo]
	if off < mo+int64(m.side)*int64(m.side)*8 {
		return mo, m, true
	}
	return 0, tileMeta{}, false
}

// overlapping returns the offsets of every recorded tile whose range
// intersects [off, off+n), in ascending order.
func (mt *metaTable) overlapping(off, n int64) []int64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if len(mt.m) == 0 {
		return nil
	}
	idx := mt.index()
	// The first candidate is the covering tile of off, if any; every
	// later candidate starts before off+n.
	i := sort.Search(len(idx), func(i int) bool { return idx[i] > off })
	if i > 0 {
		m := mt.m[idx[i-1]]
		if off < idx[i-1]+int64(m.side)*int64(m.side)*8 {
			i--
		}
	}
	var out []int64
	for ; i < len(idx) && idx[i] < off+n; i++ {
		out = append(out, idx[i])
	}
	return out
}

// journaled returns the offsets of every tile whose current payload
// lives in the journal, in ascending order.
func (mt *metaTable) journaled() []int64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	var out []int64
	for off, m := range mt.m {
		if m.flags&tileJournal != 0 {
			out = append(out, off)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// snapshot returns every entry (offsets ascending) — the journal
// header's meta snapshot at reset time.
func (mt *metaTable) snapshot() ([]int64, []tileMeta) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	offs := make([]int64, 0, len(mt.m))
	for off := range mt.m {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	metas := make([]tileMeta, len(offs))
	for i, off := range offs {
		metas[i] = mt.m[off]
	}
	return offs, metas
}

// index returns the sorted offset slice, rebuilding if stale.
// Callers hold mu.
func (mt *metaTable) index() []int64 {
	if mt.idx != nil {
		return mt.idx
	}
	idx := make([]int64, 0, len(mt.m))
	for off := range mt.m {
		idx = append(idx, off)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	mt.idx = idx
	return idx
}
