package ooc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gep/internal/core"
	"gep/internal/matrix"
)

// TestXXHashVectors pins the XXH64 implementation to the reference
// vectors of the xxHash specification (seed 0).
func TestXXHashVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 0xEF46DB3751D8E999},
		{"a", 0xD24EC4F1A98C6E5B},
		{"abc", 0x44BC2CF5AD770999},
		{"message digest", 0x066ED728FCEEB3BE},
		{"abcdefghijklmnopqrstuvwxyz", 0xCFE1F278FA89835C},
		{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789", 0xAAA46907D3047814},
		{"12345678901234567890123456789012345678901234567890123456789012345678901234567890", 0xE04A477F19EE145D},
	}
	for _, tc := range cases {
		if got := Checksum([]byte(tc.in)); got != tc.want {
			t.Errorf("Checksum(%q) = %016x, want %016x", tc.in, got, tc.want)
		}
	}
}

// TestZRLERoundTrip: compressible, incompressible, and structured
// payloads all survive encode→decode bit-exactly; incompressible data
// is refused (nil) rather than inflated.
func TestZRLERoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(words int, f func(i int) uint64) []byte {
		b := make([]byte, words*8)
		for i := 0; i < words; i++ {
			putWord(b[i*8:], f(i))
		}
		return b
	}
	cases := map[string][]byte{
		"zeros": mk(512, func(int) uint64 { return 0 }),
		"banded": mk(512, func(i int) uint64 {
			if i%16 < 3 {
				return rng.Uint64()
			}
			return 0
		}),
		"tail-zero": mk(512, func(i int) uint64 {
			if i < 100 {
				return uint64(i) + 1
			}
			return 0
		}),
		"empty": {},
	}
	for name, src := range cases {
		enc := zrleEncode(src)
		if enc == nil {
			if name == "empty" {
				continue // nothing to win on an empty payload
			}
			t.Fatalf("%s: incompressible?", name)
		}
		if len(enc) >= len(src) {
			t.Fatalf("%s: encoding grew: %d >= %d", name, len(enc), len(src))
		}
		dst := make([]byte, len(src))
		if err := zrleDecode(dst, enc); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
	dense := mk(512, func(int) uint64 { return rng.Uint64() | 1 })
	if enc := zrleEncode(dense); enc != nil {
		t.Fatalf("dense random payload compressed to %d bytes; want refusal", len(enc))
	}
}

func putWord(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// durableCfg is the shared geometry of the durability tests: 4 KiB
// tiles that map 1:1 onto stripe units, so tile i lives wholly in
// stripe i mod Stripes.
func durableCfg(stripes int) Config {
	const side = 16
	return Config{
		PageSize:   512,
		CacheSize:  1 << 16,
		Stripes:    stripes,
		StripeUnit: side * side * 8,
	}
}

// TestChecksumCorruptionPerStripe flips one bit in each stripe file in
// turn and asserts that faulting the damaged tile yields ErrCorrupt
// carrying the right tile identity (offset, side, stripe), and that a
// re-fault after repairing the byte succeeds with intact data.
func TestChecksumCorruptionPerStripe(t *testing.T) {
	const stripes = 4
	const side = 16
	unit := int64(side * side * 8)
	dir := filepath.Join(t.TempDir(), "st")
	s, err := CreateAt(dir, durableCfg(stripes))
	if err != nil {
		t.Fatal(err)
	}
	fill := func(ti int, tl *Tile) {
		for i := range tl.Data {
			tl.Data[i] = float64(ti*100000 + i)
		}
	}
	for ti := 0; ti < 2*stripes; ti++ {
		tl, err := s.PinTileZero(int64(ti)*unit, side)
		if err != nil {
			t.Fatal(err)
		}
		fill(ti, tl)
		s.UnpinTile(tl, true)
	}
	if err := s.Close(); err != nil { // applies everything home
		t.Fatal(err)
	}

	for k := 0; k < stripes; k++ {
		off := int64(k) * unit // tile k's home is stripe k
		phys := (off / unit) / stripes * unit
		path := filepath.Join(dir, fmt.Sprintf("stripe-%03d.dat", k))
		flip := func() {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			var b [1]byte
			if _, err := f.ReadAt(b[:], phys+123); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x40
			if _, err := f.WriteAt(b[:], phys+123); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		flip()
		s2, err := Open(dir, Config{PageSize: 512, CacheSize: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s2.PinTile(off, side)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("stripe %d: corrupted tile pin = %v, want ErrCorrupt", k, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("stripe %d: error %v carries no *CorruptError", k, err)
		}
		if ce.Off != off || ce.Side != side || ce.Stripe != k {
			t.Fatalf("stripe %d: corrupt identity = {off %d side %d stripe %d}, want {%d %d %d}",
				k, ce.Off, ce.Side, ce.Stripe, off, side, k)
		}
		if st := s2.Stats(); st.ChecksumFail == 0 {
			t.Fatal("checksum failure not counted")
		}
		flip() // repair
		tl, err := s2.PinTile(off, side)
		if err != nil {
			t.Fatalf("stripe %d: re-fault after repair: %v", k, err)
		}
		if tl.Data[123/8] != float64(k*100000+123/8) {
			t.Fatalf("stripe %d: repaired tile holds wrong data", k)
		}
		s2.UnpinTile(tl, false)
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalTruncationDiscardsTornTail: a crash can tear the final
// journal record. The scanner must discard the torn tail, keep every
// committed sync point, and Recover must restore exactly the last
// committed state.
func TestJournalTruncationDiscardsTornTail(t *testing.T) {
	const side = 16
	unit := int64(side * side * 8)
	dir := filepath.Join(t.TempDir(), "st")
	s, err := CreateAt(dir, durableCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	write := func(off int64, v float64) {
		tl, err := s.PinTileZero(off, side)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tl.Data {
			tl.Data[i] = v
		}
		s.UnpinTile(tl, true)
	}
	write(0, 1)
	if err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	// An uncommitted epoch: new content for tile 0, synced to the
	// journal but never committed.
	write(0, 2)
	if err := s.SyncTiles(); err != nil {
		t.Fatal(err)
	}
	s.Abandon()

	// Tear the final record: chop the journal mid-payload.
	jpath := filepath.Join(dir, journalName)
	st, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jpath, st.Size()-unit/2); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{PageSize: 512, CacheSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.Frontier != 1 {
		t.Fatalf("frontier = %d, want 1 (the committed sync point)", info.Frontier)
	}
	if !info.Torn {
		t.Fatal("torn tail not reported")
	}
	tl, err := s2.PinTile(0, side)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Data[0] != 1 {
		t.Fatalf("recovered tile holds %g, want the committed value 1", tl.Data[0])
	}
	s2.UnpinTile(tl, false)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalCommittedUnappliedReplays exercises the crash window
// between COMMIT and apply: a committed record whose payload never
// reached its home slot must be replayed home by Recover (verified by
// checksum), and the frontier must advance to the committed tag.
func TestJournalCommittedUnappliedReplays(t *testing.T) {
	const side = 16
	unit := int64(side * side * 8)
	dir := filepath.Join(t.TempDir(), "st")
	s, err := CreateAt(dir, durableCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.PinTileZero(0, side)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tl.Data {
		tl.Data[i] = 1
	}
	s.UnpinTile(tl, true)
	if err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	// Hand-append a committed epoch that is never applied: new payload
	// for tile 0, then COMMIT{2}, then crash.
	payload := make([]byte, unit)
	for i := 0; i < int(unit)/8; i++ {
		putWord(payload[i*8:], 0x4000000000000000) // float64(2.0)
	}
	sum := Checksum(payload)
	if _, err := s.jr.appendTile(s, 0, side, 0, sum, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.jr.appendCommit(s, 2); err != nil {
		t.Fatal(err)
	}
	s.Abandon()

	s2, err := Open(dir, Config{PageSize: 512, CacheSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.Frontier != 2 || info.Tiles != 1 {
		t.Fatalf("recovery = %+v, want frontier 2 with 1 replayed tile", info)
	}
	tl2, err := s2.PinTile(0, side)
	if err != nil {
		t.Fatal(err)
	}
	if tl2.Data[7] != 2 {
		t.Fatalf("replayed tile holds %g, want 2", tl2.Data[7])
	}
	s2.UnpinTile(tl2, false)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncReportsEveryStripeFailure is the regression test for the
// drop-all-but-first error harvesting: with faults injected on every
// transfer and dirty tiles write-behind-evicted on two different
// stripes, the sync point must report BOTH failures (errors.Join), not
// just the first.
func TestSyncReportsEveryStripeFailure(t *testing.T) {
	const side = 16
	unit := int64(side * side * 8)
	s, err := Create(t.TempDir(), Config{
		PageSize:   512,
		CacheSize:  unit, // 1-tile budget: every new pin evicts
		Stripes:    2,
		StripeUnit: int(unit),
		FaultEvery: 1, MaxRetries: -1, // every raw transfer fails, no retry
	})
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 3; ti++ {
		tl, err := s.PinTileZero(int64(ti)*unit, side) // no read: survives FaultEvery=1
		if err != nil {
			t.Fatal(err)
		}
		tl.Data[0] = float64(ti + 1)
		s.UnpinTile(tl, true)
	}
	err = s.SyncTiles()
	if err == nil {
		t.Fatal("sync with a broken disk returned nil")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("sync error %v does not wrap ErrInjected", err)
	}
	var multi interface{ Unwrap() []error }
	if !errors.As(err, &multi) {
		t.Fatalf("sync error %v is not a joined multi-error", err)
	}
	if got := len(multi.Unwrap()); got < 2 {
		t.Fatalf("sync reported %d error(s), want every failed stripe (>= 2)", got)
	}
	s.Abandon() // disk is broken; a Close would add noise
}

// TestStripedRunBitIdentical: RunIGEP over a striped, compressed,
// durable, checkpointed store — tiles deliberately spanning stripe
// units — is Float64bits-identical to the in-core fused engine.
func TestStripedRunBitIdentical(t *testing.T) {
	const n, side = 32, 8
	in := randomInput(n, 99)
	want := in.Clone()
	core.RunIGEP[float64](want, core.GaussElim[float64]{}, core.Gaussian{},
		core.WithBaseSize[float64](side))

	dir := filepath.Join(t.TempDir(), "st")
	s, err := CreateAt(dir, Config{
		PageSize:   512,
		CacheSize:  4 * side * side * 8,
		Stripes:    3,
		StripeUnit: 128, // tiles span many units across all stripes
		Compress:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix(s, n, 0, MortonTiledLayout(side))
	if err := m.LoadTiles(in); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	if err := RunIGEP(m, core.GaussElim[float64]{}, core.Gaussian{},
		RunOptions{CheckpointEvery: 3}); err != nil {
		t.Fatal(err)
	}
	got, err := m.Unload()
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "striped-durable", want, got)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverResumeBitIdentical is the end-to-end crash drill: a
// checkpointed run stopped cold mid-computation (StopAfter + Abandon),
// reopened, recovered, and resumed from the reported frontier must
// produce a bit-identical result — same Digest, same Unload bits — as
// an uninterrupted run.
func TestRecoverResumeBitIdentical(t *testing.T) {
	const n, side = 32, 8
	in := randomInput(n, 123)
	opts := RunOptions{CheckpointEvery: 5}

	// Uninterrupted reference run.
	dirA := filepath.Join(t.TempDir(), "a")
	sa, err := CreateAt(dirA, durableCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	ma := NewMatrix(sa, n, 0, MortonTiledLayout(side))
	if err := ma.LoadTiles(in); err != nil {
		t.Fatal(err)
	}
	if err := sa.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	if err := RunIGEP(ma, core.LUFactor[float64]{}, core.LU{}, opts); err != nil {
		t.Fatal(err)
	}
	wantDigest, err := ma.Digest()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ma.Unload()
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}

	// Crashed run: stop cold after 13 blocks (last checkpoint at 10).
	dirB := filepath.Join(t.TempDir(), "b")
	sb, err := CreateAt(dirB, durableCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	mb := NewMatrix(sb, n, 0, MortonTiledLayout(side))
	if err := mb.LoadTiles(in); err != nil {
		t.Fatal(err)
	}
	if err := sb.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	stopOpts := opts
	stopOpts.StopAfter = 13
	if err := RunIGEP(mb, core.LUFactor[float64]{}, core.LU{}, stopOpts); !errors.Is(err, ErrStopped) {
		t.Fatalf("drill run = %v, want ErrStopped", err)
	}
	sb.Abandon()

	// Recover and resume.
	sb2, err := Open(dirB, Config{PageSize: 512, CacheSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	info, err := sb2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.Frontier != 10 {
		t.Fatalf("frontier = %d, want 10 (checkpoints every 5, stopped at 13)", info.Frontier)
	}
	mb2 := NewMatrix(sb2, n, 0, MortonTiledLayout(side))
	resumeOpts := opts
	resumeOpts.StartBlock = info.Frontier
	if err := RunIGEP(mb2, core.LUFactor[float64]{}, core.LU{}, resumeOpts); err != nil {
		t.Fatal(err)
	}
	gotDigest, err := mb2.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != wantDigest {
		t.Fatalf("resumed digest %016x != uninterrupted %016x", gotDigest, wantDigest)
	}
	got, err := mb2.Unload()
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "recover-resume", want, got)
	if err := sb2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompressionSplitsLogicalPhysical: a banded LU input keeps most
// tiles all-zero, so the compressed physical traffic must be well
// under the logical traffic — and the run still bit-matches the
// uncompressed one.
func TestCompressionSplitsLogicalPhysical(t *testing.T) {
	const n, side = 64, 8
	in := bandedInput(n, side, 2)
	run := func(compress bool) (*matrix.Dense[float64], Stats) {
		s, err := Create(t.TempDir(), Config{
			PageSize:  512,
			CacheSize: 4 * side * side * 8,
			Compress:  compress,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		m := NewMatrix(s, n, 0, MortonTiledLayout(side))
		if err := m.LoadTiles(in); err != nil {
			t.Fatal(err)
		}
		s.ResetStats()
		if err := RunIGEP(m, core.LUFactor[float64]{}, core.LU{}, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		out, err := m.Unload()
		if err != nil {
			t.Fatal(err)
		}
		return out, st
	}
	plain, pst := run(false)
	packed, cst := run(true)
	bitsEqual(t, "compressed-vs-raw", plain, packed)
	if pst.BytesLogical != pst.BytesPhysical {
		t.Fatalf("uncompressed store split traffic: logical %d physical %d",
			pst.BytesLogical, pst.BytesPhysical)
	}
	// LU fill-in widens the band to 2×, but the fully-zero corner tiles
	// alone must save well over 10% of the physical traffic.
	if cst.BytesPhysical*10 >= cst.BytesLogical*9 {
		t.Fatalf("banded input barely compressed: logical %d physical %d",
			cst.BytesLogical, cst.BytesPhysical)
	}
	if cst.TileReads != pst.TileReads || cst.TileWrites != pst.TileWrites {
		t.Fatalf("compression changed the §4.1 transfer counts: %d/%d vs %d/%d",
			cst.TileReads, cst.TileWrites, pst.TileReads, pst.TileWrites)
	}
}

// bandedInput builds a diagonally dominant matrix that is zero outside
// a band of the given half-width in tiles.
func bandedInput(n, side, halfTiles int) *matrix.Dense[float64] {
	rng := rand.New(rand.NewSource(5))
	m := matrix.NewSquare[float64](n)
	band := halfTiles * side
	m.Apply(func(i, j int, _ float64) float64 {
		d := i - j
		if d < 0 {
			d = -d
		}
		if d > band {
			return 0
		}
		if i == j {
			return float64(n) + rng.Float64()
		}
		return rng.NormFloat64()
	})
	return m
}

// TestOpenValidation: geometry disagreements and double-create are
// errors, not corruption.
func TestOpenValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	s, err := CreateAt(dir, durableCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateAt(dir, durableCfg(2)); err == nil {
		t.Fatal("CreateAt over an existing store succeeded")
	}
	if _, err := Open(dir, Config{PageSize: 512, CacheSize: 1 << 16, Stripes: 3}); err == nil {
		t.Fatal("Open with a wrong stripe count succeeded")
	}
	s2, err := Open(dir, Config{PageSize: 512, CacheSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.files); got != 2 {
		t.Fatalf("Open adopted %d stripes, want 2 from the journal header", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRules: Checkpoint needs a durable store and no pins.
func TestCheckpointRules(t *testing.T) {
	s := newTestStore(t, 64, 4096)
	if err := s.Checkpoint(1); !errors.Is(err, errNotDurable) {
		t.Fatalf("Checkpoint on a temp store = %v, want errNotDurable", err)
	}
	if err := RunIGEP(NewMatrix(s, 8, 0, MortonTiledLayout(4)),
		core.MinPlus[float64]{}, core.Full{}, RunOptions{CheckpointEvery: 1}); !errors.Is(err, errNotDurable) {
		t.Fatalf("checkpointed RunIGEP on a temp store = %v, want errNotDurable", err)
	}

	dir := filepath.Join(t.TempDir(), "st")
	d, err := CreateAt(dir, durableCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := d.PinTileZero(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(1); err == nil {
		t.Fatal("Checkpoint with a pinned tile succeeded")
	}
	d.UnpinTile(tl, true)
	if err := d.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if d.Frontier() != 1 {
		t.Fatalf("frontier = %d, want 1", d.Frontier())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStressStripedStore churns a small striped, compressed, durable
// store through the full API surface — pins, zero-pins, clean pins,
// element access, sync points, checkpoints — under the race detector,
// against an in-RAM model of expected contents.
func TestStressStripedStore(t *testing.T) {
	const side = 8
	tileBytes := int64(side * side * 8)
	const tiles = 24
	dir := filepath.Join(t.TempDir(), "st")
	s, err := CreateAt(dir, Config{
		PageSize:   512,
		CacheSize:  3 * tileBytes, // heavy eviction churn
		Stripes:    4,
		StripeUnit: 512, // tiles span units
		Compress:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := make([][]float64, tiles)
	rng := rand.New(rand.NewSource(31337))
	version := 0
	for iter := 0; iter < 3000; iter++ {
		ti := rng.Intn(tiles)
		off := int64(ti) * tileBytes
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // pin, verify, mutate
			tl, err := s.PinTile(off, side)
			if err != nil {
				t.Fatalf("iter %d: pin %d: %v", iter, ti, err)
			}
			if model[ti] == nil {
				for _, v := range tl.Data {
					if v != 0 {
						t.Fatalf("iter %d: unwritten tile %d reads %g", iter, ti, v)
					}
				}
			} else {
				for i, v := range tl.Data {
					if v != model[ti][i] {
						t.Fatalf("iter %d: tile %d cell %d = %g, want %g", iter, ti, i, v, model[ti][i])
					}
				}
			}
			version++
			if model[ti] == nil {
				model[ti] = make([]float64, side*side)
			}
			k := rng.Intn(side * side)
			tl.Data[k] = float64(version)
			model[ti][k] = float64(version)
			s.UnpinTile(tl, true)
		case 4: // fresh overwrite
			tl, err := s.PinTileZero(off, side)
			if err != nil {
				t.Fatalf("iter %d: zero-pin %d: %v", iter, ti, err)
			}
			version++
			if model[ti] == nil {
				model[ti] = make([]float64, side*side)
			}
			for i := range tl.Data {
				tl.Data[i] = float64(version)
				model[ti][i] = float64(version)
			}
			s.UnpinTile(tl, true)
		case 5: // clean pin: verify, unpin unwritten
			tl, err := s.PinTile(off, side)
			if err != nil {
				t.Fatalf("iter %d: clean pin %d: %v", iter, ti, err)
			}
			for i, v := range tl.Data {
				want := 0.0
				if model[ti] != nil {
					want = model[ti][i]
				}
				if v != want {
					t.Fatalf("iter %d: clean pin tile %d cell %d = %g, want %g", iter, ti, i, v, want)
				}
			}
			s.UnpinTile(tl, false)
		case 6: // element read through whatever path covers it
			k := rng.Intn(side * side)
			want := 0.0
			if model[ti] != nil {
				want = model[ti][k]
			}
			if got := s.ReadFloat(off + int64(k)*8); got != want {
				t.Fatalf("iter %d: element read tile %d cell %d = %g, want %g", iter, ti, k, got, want)
			}
		case 7: // element write
			k := rng.Intn(side * side)
			version++
			if model[ti] == nil {
				model[ti] = make([]float64, side*side)
			}
			s.WriteFloat(off+int64(k)*8, float64(version))
			model[ti][k] = float64(version)
		case 8:
			if err := s.SyncTiles(); err != nil {
				t.Fatalf("iter %d: sync: %v", iter, err)
			}
		case 9:
			if iter%7 == 0 {
				if err := s.Checkpoint(int64(iter)); err != nil {
					t.Fatalf("iter %d: checkpoint: %v", iter, err)
				}
			}
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	// Every tile's final state survives a close/open cycle.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Config{PageSize: 512, CacheSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < tiles; ti++ {
		if model[ti] == nil {
			continue
		}
		tl, err := s2.PinTile(int64(ti)*tileBytes, side)
		if err != nil {
			t.Fatalf("reopen pin %d: %v", ti, err)
		}
		for i, v := range tl.Data {
			if v != model[ti][i] {
				t.Fatalf("reopen tile %d cell %d = %g, want %g", ti, i, v, model[ti][i])
			}
		}
		s2.UnpinTile(tl, false)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzJournalReplay drives the journal scanner over arbitrary bytes:
// it must never panic, and whatever it accepts must satisfy the
// structural invariants Recover depends on.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeJournalHeader(-1, 2, 64, nil, nil))
	// A valid journal with one committed epoch, as a structured seed.
	hdr := encodeJournalHeader(3, 1, 64, []int64{0}, []tileMeta{{side: 4, physLen: 128, sum: 9}})
	rec := make([]byte, jtrecSize+16)
	rec[0] = 'T'
	putWord(rec[4:], 4)                       // side (low word)
	putWord(rec[8:], 128)                     // off
	putWord(rec[16:], uint64(tileCompressed)) // flags (low word)
	putWord(rec[20:], 16)                     // physLen overlaps flags hi; fuzz will mutate anyway
	putWord(rec[32:], Checksum(rec[:32]))
	commit := make([]byte, jcrecSize)
	commit[0] = 'C'
	putWord(commit[8:], 7)
	putWord(commit[16:], Checksum(commit[:16]))
	f.Add(append(append(append([]byte{}, hdr...), rec...), commit...))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := scanJournal(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if sc.end > int64(len(data)) {
			t.Fatalf("committed end %d past input size %d", sc.end, len(data))
		}
		for off, m := range sc.meta {
			if !metaSane(off, m) {
				t.Fatalf("scanner accepted insane meta at %d: %+v", off, m)
			}
			if m.flags&tileJournal != 0 && (m.jpos < jhdrSize || m.jpos+int64(m.physLen) > int64(len(data))) {
				t.Fatalf("journal-resident meta at %d points outside the image: %+v", off, m)
			}
		}
	})
}

// FuzzZRLEDecode: the decoder must reject or exactly consume arbitrary
// payloads without panicking, and every encoder output must round-trip.
func FuzzZRLEDecode(f *testing.F) {
	f.Add([]byte{0x00, 0x04}, uint16(4))
	f.Add([]byte{0x01, 0x01, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, words16 uint16) {
		words := int(words16 % 1024)
		dst := make([]byte, words*8)
		_ = zrleDecode(dst, data) // must not panic
		// Encoder outputs round-trip: reinterpret data as raw words.
		src := data
		if len(src) > words*8 {
			src = src[:words*8]
		}
		raw := make([]byte, words*8)
		copy(raw, src)
		if enc := zrleEncode(raw); enc != nil {
			back := make([]byte, len(raw))
			if err := zrleDecode(back, enc); err != nil {
				t.Fatalf("encoder output rejected: %v", err)
			}
			if !bytes.Equal(back, raw) {
				t.Fatal("encode/decode round trip mismatch")
			}
		}
	})
}
