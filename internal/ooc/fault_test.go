package ooc

import (
	"errors"
	"os"
	"testing"
	"time"

	"gep/internal/core"
)

// fastRetry keeps injected-fault tests quick.
const fastRetry = 10 * time.Microsecond

// TestInjectedFaultExhaustsRetriesAsError: with every transfer failing
// the tile run must return an error wrapping ErrInjected — never panic
// and never hang — and the run must not have written anything lying
// about success.
func TestInjectedFaultExhaustsRetriesAsError(t *testing.T) {
	s, err := Create(t.TempDir(), Config{
		PageSize: 64, CacheSize: 1024,
		FaultEvery: 1, MaxRetries: 2, RetryBackoff: fastRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix(s, 8, 0, MortonTiledLayout(4))
	runErr := RunIGEP(m, core.MinPlus[float64]{}, core.Full{}, RunOptions{})
	if runErr == nil {
		t.Fatal("RunIGEP succeeded with every transfer failing")
	}
	if !errors.Is(runErr, ErrInjected) {
		t.Fatalf("error does not wrap ErrInjected: %v", runErr)
	}
	if st := s.Stats(); st.Retries == 0 || st.Injected == 0 {
		t.Fatalf("no retries/injections recorded: %+v", st)
	}
	// Close still cleans up without panicking (nothing dirty survived
	// the failed run, so it may well succeed).
	_ = s.Close()
}

// TestInjectedFaultOnElementPathIsSticky: the Grid API cannot return
// errors, so an exhausted element access must record the failure in
// Err instead of panicking.
func TestInjectedFaultOnElementPathIsSticky(t *testing.T) {
	s, err := Create(t.TempDir(), Config{
		PageSize: 64, CacheSize: 1024,
		FaultEvery: 1, MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := NewMatrix(s, 4, 0, RowMajorLayout)
	if got := m.At(1, 1); got != 0 {
		t.Fatalf("failed read returned %g, want 0", got)
	}
	if !errors.Is(s.Err(), ErrInjected) {
		t.Fatalf("Err() = %v, want ErrInjected", s.Err())
	}
}

// TestTransientFaultsRecoverByRetry: sporadic failures (every 7th
// transfer) are absorbed by the retry policy — the run succeeds, the
// answer is bit-identical, and the retries are counted.
func TestTransientFaultsRecoverByRetry(t *testing.T) {
	const n, side = 16, 4
	in := randomInput(n, 5)
	want := in.Clone()
	core.RunIGEP[float64](want, core.MinPlus[float64]{}, core.Full{}, core.WithBaseSize[float64](side))

	s, err := Create(t.TempDir(), Config{
		PageSize: 64, CacheSize: 4 * side * side * 8,
		FaultEvery: 7, MaxRetries: 3, RetryBackoff: fastRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix(s, n, 0, MortonTiledLayout(side))
	if err := m.Load(in); err != nil {
		t.Fatal(err)
	}
	if err := RunIGEP(m, core.MinPlus[float64]{}, core.Full{}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Retries == 0 {
		t.Fatalf("no retries recorded under FaultEvery=7: %+v", st)
	}
	got, err := m.Unload()
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "transient-recovery", want, got)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionSurvivesWriteBackFailure is the regression test for the
// evict-before-write-back bug: when the write-back of a dirty LRU
// victim fails, the victim must stay resident and dirty — no silent
// data loss — and once the disk recovers, the data must reach it.
func TestEvictionSurvivesWriteBackFailure(t *testing.T) {
	s, err := Create(t.TempDir(), Config{PageSize: 64, CacheSize: 64, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	s.WriteFloat(0, 42) // page 0 resident and dirty
	name := s.files[0].Name()

	// Break the disk under the store, then fault a second page, which
	// needs to evict dirty page 0.
	if err := s.files[0].Close(); err != nil {
		t.Fatal(err)
	}
	_ = s.ReadFloat(64)
	if s.Err() == nil {
		t.Fatal("failed write-back recorded no error")
	}
	if s.Resident() != 1 {
		t.Fatalf("resident = %d after failed eviction, want the victim kept", s.Resident())
	}
	// The dirty data is still served from the cache, not lost.
	if got := s.ReadFloat(0); got != 42 {
		t.Fatalf("victim data lost: ReadFloat(0) = %g, want 42", got)
	}

	// Repair the disk: the retained dirty page flushes successfully.
	f2, err := os.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.files[0] = f2
	if err := s.Flush(); err != nil {
		t.Fatalf("flush after repair: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseReturnsFlushError is the regression test for Close ignoring
// Flush failures: a dirty store whose disk is gone must report the
// failure from Close, not return nil.
func TestCloseReturnsFlushError(t *testing.T) {
	s, err := Create(t.TempDir(), Config{PageSize: 64, CacheSize: 256, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	s.WriteFloat(0, 1) // dirty page
	if err := s.files[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close returned nil with a dirty page and a broken disk")
	}
}

// TestWriteBehindFailureSurfacesAtSync: a background write-back error
// must reach the driver at the next sync point even when the driver
// never re-pins the failed tile.
func TestWriteBehindFailureSurfacesAtSync(t *testing.T) {
	const side = 4
	tileBytes := int64(side * side * 8)
	s, err := Create(t.TempDir(), Config{
		PageSize: 64, CacheSize: tileBytes, // 1-tile budget: every pin evicts
		MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix(s, 8, 0, MortonTiledLayout(side))

	tile, err := m.PinTile(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tile.Data[0] = 1
	s.UnpinTile(tile, true)

	// Break the disk, then evict the dirty tile by pinning another.
	name := s.files[0].Name()
	if err := s.files[0].Close(); err != nil {
		t.Fatal(err)
	}
	t2, err := m.PinTile(1, 1)
	if err == nil {
		// The read of the new tile may fail too (broken disk); if it
		// somehow succeeded, unpin and rely on the sync below.
		s.UnpinTile(t2, false)
	}
	if serr := s.SyncTiles(); serr == nil && s.Err() == nil {
		t.Fatal("background write-back failure vanished")
	}
	// Reopen so Close can clean up the temp file.
	if f2, oerr := os.OpenFile(name, os.O_RDWR, 0); oerr == nil {
		s.files[0] = f2
		s.Close()
	}
}

// TestLayoutValidationError: misuse that is not I/O keeps its panic
// (NewMatrix alignment), but pinning mismatched tile geometry is an
// error, not a panic.
func TestTileSideMismatchIsError(t *testing.T) {
	s := newTestStore(t, 64, 4096)
	tile, err := s.PinTile(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.UnpinTile(tile, false)
	if _, err := s.PinTile(0, 8); err == nil {
		t.Fatal("mismatched tile side accepted")
	}
}
