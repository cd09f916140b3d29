package bench

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/ooc"
)

func init() {
	Register(Experiment{
		Name:  "fig7a",
		Title: "Figure 7(a): out-of-core Floyd-Warshall I/O wait vs cache size M (n, B fixed)",
		Run:   runFig7a,
	})
	Register(Experiment{
		Name:  "fig7b",
		Title: "Figure 7(b): out-of-core Floyd-Warshall I/O wait vs M/B (M fixed, B varied)",
		Run:   runFig7b,
	})
	Register(Experiment{
		Name:  "ooc",
		Title: "Tile-granular out-of-core I-GEP: element path vs resident-tile kernels; durable striped stores + crash recovery",
		Run:   runOOCTiles,
	})
}

// fwUpdate is the fused min-plus op over float64 (integer edge weights
// keep it exact), shared by every Floyd-Warshall experiment: dense
// in-core runs take its fused kernel, wrapper grids (cache simulators,
// out-of-core stores) call its Func per element — identical accesses,
// identical results.
var fwUpdate = core.MinPlus[float64]{}

// oocAlgo names one algorithm, its natural disk layout and how to run
// it on an out-of-core matrix.
type oocAlgo struct {
	name   string
	layout ooc.LayoutFunc
	run    func(s *ooc.Store, m *ooc.Matrix) error
}

// oocAlgos are the four contenders of Figure 7: iterative GEP, I-GEP,
// and both C-GEP variants (aux matrices also file-backed, charged to
// the same cache budget). Each algorithm gets its natural disk layout,
// as the paper's per-implementation tuning does: row-major for the
// scanning iterative GEP, Morton-tiled for the recursive algorithms.
func oocAlgos(base int) []oocAlgo {
	newAux := func(s *ooc.Store, next *int64) func(rows, cols int) matrix.Rect[float64] {
		return func(rows, cols int) matrix.Rect[float64] {
			r := ooc.NewTiledRect(s, rows, cols, 16, *next)
			*next += r.Bytes()
			return r
		}
	}
	morton := ooc.MortonTiledLayout(minInt2(base, 32))
	return []oocAlgo{
		{"GEP", ooc.RowMajorLayout, func(s *ooc.Store, m *ooc.Matrix) error {
			core.RunGEP[float64](m, fwUpdate, core.Full{})
			return s.Err()
		}},
		{"I-GEP", morton, func(s *ooc.Store, m *ooc.Matrix) error {
			core.RunIGEP[float64](m, fwUpdate, core.Full{}, core.WithBaseSize[float64](base))
			return s.Err()
		}},
		{"C-GEP(4n^2)", morton, func(s *ooc.Store, m *ooc.Matrix) error {
			next := m.Bytes()
			core.RunCGEP[float64](m, fwUpdate, core.Full{},
				core.WithBaseSize[float64](base), core.WithAuxFactory[float64](newAux(s, &next)))
			return s.Err()
		}},
		{"C-GEP(2n^2)", morton, func(s *ooc.Store, m *ooc.Matrix) error {
			next := m.Bytes()
			core.RunCGEPCompact[float64](m, fwUpdate, core.Full{},
				core.WithBaseSize[float64](base), core.WithAuxFactory[float64](newAux(s, &next)))
			return s.Err()
		}},
	}
}

// fwInput builds a random integer-weight distance matrix.
func fwInput(n int, seed int64) *matrix.Dense[float64] {
	rng := rand.New(rand.NewSource(seed))
	d := matrix.NewSquare[float64](n)
	d.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return 0
		}
		return float64(rng.Intn(1000) + 1)
	})
	return d
}

// runOOC executes one algorithm on a fresh store and reports the I/O
// counters, modeled disk wait, measured wall-clock time, and the
// engine-counter delta of the run. Every error path propagates: setup,
// load, the run itself (including the store's sticky element-path
// error), and close.
func runOOC(a oocAlgo, in *matrix.Dense[float64], pageSize int, cacheSize int64) (ooc.Stats, time.Duration, time.Duration, map[string]int64, error) {
	s, err := ooc.Create("", ooc.Config{PageSize: pageSize, CacheSize: cacheSize})
	if err != nil {
		return ooc.Stats{}, 0, 0, nil, err
	}
	m := ooc.NewMatrix(s, in.N(), 0, a.layout)
	if err := m.Load(in); err != nil {
		s.Close()
		return ooc.Stats{}, 0, 0, nil, err
	}
	s.ResetStats()
	var runErr error
	wall, mets := TimeBestMetered(1, func() { runErr = a.run(s, m) })
	st, ioWait := s.Stats(), s.IOTime()
	if cerr := s.Close(); runErr == nil {
		runErr = cerr
	}
	return st, ioWait, wall, mets, runErr
}

func runFig7a(w io.Writer, scale Scale) error {
	// Keep M/B comfortably above the paper's degenerate small-M/B
	// regime and the Morton tile within a couple of pages.
	n, pageSize, base := 128, 1024, 16
	if scale == Full {
		n, pageSize, base = 256, 8192, 32
	}
	in := fwInput(n, 7)
	matBytes := int64(n) * int64(n) * 8

	fmt.Fprintf(w, "n=%d (matrix %d KB), B=%d B; sweeping M\n\n", n, matBytes>>10, pageSize)
	var t Table
	t.Header("M/matrix", "algorithm", "page reads", "page writes", "modeled I/O wait", "wall time")
	for _, frac := range []int{8, 4, 2, 1} { // M = matrix/8 .. matrix/1
		cache := matBytes / int64(frac)
		for _, a := range oocAlgos(base) {
			st, ioWait, wall, mets, err := runOOC(a, in, pageSize, cache)
			if err != nil {
				return err
			}
			Record(Row{Engine: a.name, N: n, Param: fmt.Sprintf("M=1/%d", frac), Wall: wall,
				Metrics: mets,
				Extra: map[string]float64{
					"page_reads":  float64(st.PageReads),
					"page_writes": float64(st.PageWrites),
					"io_wait_ns":  float64(ioWait.Nanoseconds()),
				}})
			t.Row(fmt.Sprintf("1/%d", frac), a.name, st.PageReads, st.PageWrites, ioWait, wall)
		}
	}
	_, err := t.WriteTo(w)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected shape (paper): GEP's I/O wait is orders of magnitude above")
	fmt.Fprintln(w, "I-GEP/C-GEP and nearly flat in M; I-GEP and C-GEP improve as M grows.")
	return nil
}

func runFig7b(w io.Writer, scale Scale) error {
	n, base := 128, 16
	pageSizes := []int{512, 1024, 2048, 4096}
	if scale == Full {
		n, base = 256, 32
		pageSizes = []int{2048, 4096, 8192, 16384, 32768}
	}
	in := fwInput(n, 8)
	matBytes := int64(n) * int64(n) * 8
	cache := matBytes / 2 // M fixed at half the matrix

	fmt.Fprintf(w, "n=%d, M=%d KB fixed; sweeping B (so M/B varies)\n\n", n, cache>>10)
	var t Table
	t.Header("B", "M/B", "algorithm", "page reads", "page writes", "modeled I/O wait")
	for _, b := range pageSizes {
		for _, a := range oocAlgos(base) {
			st, ioWait, _, mets, err := runOOC(a, in, b, cache)
			if err != nil {
				return err
			}
			Record(Row{Engine: a.name, N: n, Param: fmt.Sprintf("B=%d", b),
				Metrics: mets,
				Extra: map[string]float64{
					"page_reads":  float64(st.PageReads),
					"page_writes": float64(st.PageWrites),
					"io_wait_ns":  float64(ioWait.Nanoseconds()),
				}})
			t.Row(b, cache/int64(b), a.name, st.PageReads, st.PageWrites, ioWait)
		}
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected shape (paper): I/O wait grows roughly linearly with M/B for")
	fmt.Fprintln(w, "all algorithms (more, smaller pages => more transfers at fixed volume),")
	fmt.Fprintln(w, "with GEP far above I-GEP/C-GEP throughout.")
	return nil
}

// runOOCTiles measures what the tile-granular runtime buys over the
// element-at-a-time path on the same out-of-core I-GEP recursion: the
// element engine calls ReadFloat/WriteFloat four times per update,
// and the tile engine runs the fused kernels on pinned resident
// quadrants, faulted in on demand, while dirty write-backs overlap
// compute. Both produce bit-identical results; only staging differs.
func runOOCTiles(w io.Writer, scale Scale) error {
	type config struct {
		n, tile, pageSize int
		cache             int64
	}
	configs := []config{
		{n: 256, tile: 32, pageSize: 4096, cache: 256 * 256 * 8 / 2},
	}
	if scale == Full {
		// The acceptance configuration: n=2048 (32 MB matrix) against a
		// 16 MB cache, 64 KB pages, 64-wide tiles.
		configs = append(configs, config{n: 2048, tile: 64, pageSize: 1 << 16, cache: 16 << 20})
	}
	engines := []struct {
		name string
		run  func(tile int) func(s *ooc.Store, m *ooc.Matrix) error
	}{
		{"I-GEP(element)", func(tile int) func(s *ooc.Store, m *ooc.Matrix) error {
			return func(s *ooc.Store, m *ooc.Matrix) error {
				core.RunIGEP[float64](m, fwUpdate, core.Full{}, core.WithBaseSize[float64](tile))
				return s.Err()
			}
		}},
		{"I-GEP(tile)", func(int) func(s *ooc.Store, m *ooc.Matrix) error {
			return func(s *ooc.Store, m *ooc.Matrix) error {
				return ooc.RunIGEP(m, fwUpdate, core.Full{}, ooc.RunOptions{})
			}
		}},
	}
	for ci, c := range configs {
		if ci > 0 {
			fmt.Fprintln(w)
		}
		in := fwInput(c.n, 11)
		matBytes := int64(c.n) * int64(c.n) * 8
		fmt.Fprintf(w, "n=%d (matrix %d KB), B=%d B, M=%d KB, tile=%d\n\n",
			c.n, matBytes>>10, c.pageSize, c.cache>>10, c.tile)
		var t Table
		t.Header("engine", "tile reads", "tile writes", "page reads", "modeled I/O wait", "wall time", "speedup")
		var elementWall time.Duration
		for _, e := range engines {
			a := oocAlgo{e.name, ooc.MortonTiledLayout(c.tile), e.run(c.tile)}
			st, ioWait, wall, mets, err := runOOC(a, in, c.pageSize, c.cache)
			if err != nil {
				return err
			}
			if elementWall == 0 {
				elementWall = wall
			}
			speedup := float64(elementWall) / float64(wall)
			Record(Row{Engine: e.name, N: c.n,
				Param: fmt.Sprintf("B=%d,M=%dK,t=%d", c.pageSize, c.cache>>10, c.tile),
				Wall:  wall, Metrics: mets,
				Extra: map[string]float64{
					"page_reads":         float64(st.PageReads),
					"page_writes":        float64(st.PageWrites),
					"tile_reads":         float64(st.TileReads),
					"tile_writes":        float64(st.TileWrites),
					"io_wait_ns":         float64(ioWait.Nanoseconds()),
					"speedup_vs_element": speedup,
				}})
			t.Row(e.name, st.TileReads, st.TileWrites, st.PageReads, ioWait,
				wall, fmt.Sprintf("%.1fx", speedup))
		}
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\nExpected shape: identical results, but the tile engine replaces four")
	fmt.Fprintln(w, "interface calls and a page-cache probe per update with fused kernels over")
	fmt.Fprintln(w, "resident buffers — an order of magnitude of wall time. Its reads are")
	fmt.Fprintln(w, "demand faults at tile granularity; only the write-backs of evicted dirty")
	fmt.Fprintln(w, "tiles overlap compute.")
	fmt.Fprintln(w)
	return runOOCDurable(w, scale)
}

// dconf is one durable-store configuration: an LU factorization on a
// striped, checksummed, journaled store with periodic sync points.
// band > 0 makes the input zero outside |i-j| <= band — the realistic
// compressible case (LU fill-in stays within 2×band).
type dconf struct {
	n, tile    int
	cache      int64
	stripes    int
	compress   bool
	band       int
	checkpoint int64
}

func (c dconf) param() string {
	return fmt.Sprintf("s=%d,z=%v,ckpt=%d", c.stripes, c.compress, c.checkpoint)
}

// oocCell is the deterministic, order-independent input generator for
// the durable legs (matrices too large to stage densely in RAM load
// tile by tile via LoadFunc): diagonally dominant so LU stays finite,
// zero outside the band when one is set.
func oocCell(seed int64, n, i, j, band int) float64 {
	if band > 0 {
		d := i - j
		if d < 0 {
			d = -d
		}
		if d > band {
			return 0
		}
	}
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	binary.LittleEndian.PutUint64(b[16:], uint64(j))
	u := float64(ooc.Checksum(b[:])>>11) / float64(int64(1)<<53)
	if i == j {
		return float64(n) + u
	}
	return 2*u - 1
}

// luBlocks is the number of I-GEP base-case blocks an LU run visits on
// an nt×nt tile grid (sum of squares — the checkpoint/resume cursor
// space the crash drill picks its stop point from).
func luBlocks(nt int) int64 {
	total := int64(0)
	for j := 1; j <= nt; j++ {
		total += int64(j) * int64(j)
	}
	return total
}

// newDurable creates a durable store + matrix, loads the deterministic
// input through the tile path, and commits sync point 0 — the state
// every checkpointed run (and every resume) starts from.
func newDurable(c dconf) (*ooc.Store, *ooc.Matrix, string, error) {
	dir, err := os.MkdirTemp("", "gep-ooc-durable-*")
	if err != nil {
		return nil, nil, "", err
	}
	s, err := ooc.CreateAt(dir, ooc.Config{
		PageSize: 4096, CacheSize: c.cache,
		Stripes: c.stripes, Compress: c.compress,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", err
	}
	m := ooc.NewMatrix(s, c.n, 0, ooc.MortonTiledLayout(c.tile))
	if err := m.LoadFunc(func(i, j int) float64 {
		return oocCell(13, c.n, i, j, c.band)
	}); err == nil {
		err = s.Checkpoint(0)
	} else {
		s.Abandon()
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", err
	}
	return s, m, dir, nil
}

// runOOCDurable measures the production storage path — striping,
// per-tile checksums, optional compression, write-ahead journal — and
// the crash → recover → resume drill. The durable rows report the
// logical/physical byte split (the §4.1 transfer accounting stays in
// logical tiles; only IOTime and the physical column see compression)
// and the drill row times Store.Recover and verifies, in-process, that
// the resumed result is digest-identical to an uninterrupted run.
func runOOCDurable(w io.Writer, scale Scale) error {
	smallCache := int64(256 * 256 * 8 / 2)
	configs := []dconf{
		{n: 256, tile: 32, cache: smallCache, stripes: 1, checkpoint: 64},
		{n: 256, tile: 32, cache: smallCache, stripes: 4, checkpoint: 64},
		{n: 256, tile: 32, cache: smallCache, stripes: 4, compress: true, band: 48, checkpoint: 64},
	}
	if scale == Full {
		configs = append(configs,
			// 32 MB matrix against a 16 MB cache.
			dconf{n: 2048, tile: 64, cache: 16 << 20, stripes: 4, checkpoint: 512},
			// The acceptance leg: 2 GiB matrix against a 128 MiB cache
			// (M ≈ n²/16), banded + compressed, ~22 sync points.
			dconf{n: 16384, tile: 256, cache: 128 << 20, stripes: 4,
				compress: true, band: 2048, checkpoint: 4096},
		)
	}

	fmt.Fprintln(w, "durable stores (LU, striped + checksummed + journaled, checkpointed):")
	fmt.Fprintln(w)
	var t Table
	t.Header("n", "config", "logical MB", "physical MB", "sync points", "modeled I/O wait", "wall time")
	for _, c := range configs {
		s, m, dir, err := newDurable(c)
		if err != nil {
			return err
		}
		s.ResetStats()
		var runErr error
		wall, mets := TimeBestMetered(1, func() {
			runErr = ooc.RunIGEP(m, core.LUFactor[float64]{}, core.LU{},
				ooc.RunOptions{CheckpointEvery: c.checkpoint})
		})
		st, ioWait := s.Stats(), s.IOTime()
		if cerr := s.Close(); runErr == nil {
			runErr = cerr
		}
		os.RemoveAll(dir)
		if runErr != nil {
			return fmt.Errorf("durable n=%d: %w", c.n, runErr)
		}
		Record(Row{Engine: "I-GEP(durable)", N: c.n, Param: c.param(), Wall: wall,
			Metrics: mets,
			Extra: map[string]float64{
				"bytes_logical":   float64(st.BytesLogical),
				"bytes_physical":  float64(st.BytesPhysical),
				"tile_reads":      float64(st.TileReads),
				"tile_writes":     float64(st.TileWrites),
				"journal_commits": float64(st.JournalCommits),
				"checksum_ok":     float64(st.ChecksumOK),
				"io_wait_ns":      float64(ioWait.Nanoseconds()),
			}})
		t.Row(c.n, c.param(), st.BytesLogical>>20, st.BytesPhysical>>20,
			st.JournalCommits, ioWait, wall)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}

	drills := []dconf{
		{n: 256, tile: 32, cache: smallCache, stripes: 4, checkpoint: 32},
	}
	if scale == Full {
		drills = append(drills,
			dconf{n: 4096, tile: 128, cache: 32 << 20, stripes: 4, checkpoint: 512})
	}
	fmt.Fprintln(w, "\ncrash drill (stop cold at 60% of the blocks, recover, resume):")
	fmt.Fprintln(w)
	var d Table
	d.Header("n", "frontier/total", "replayed", "recovery time", "resume wall", "digest")
	for _, c := range drills {
		if err := runCrashDrill(&d, c); err != nil {
			return err
		}
	}
	if _, err := d.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected shape: striping is free at this concurrency, the journal's")
	fmt.Fprintln(w, "double-write costs a modest constant factor, compression drops physical")
	fmt.Fprintln(w, "(not logical) bytes on banded inputs, and recovery time is journal-scan")
	fmt.Fprintln(w, "plus replay — milliseconds, independent of how much computation is done.")
	return nil
}

// runCrashDrill runs LU to completion for a reference digest, reruns
// it with a cold stop at 60% of the blocks, recovers, resumes from the
// reported frontier, and fails the experiment unless the digests
// match. Recovery time (Open + Recover) and resume wall go in the row.
func runCrashDrill(t *Table, c dconf) error {
	s, m, dir, err := newDurable(c)
	if err != nil {
		return err
	}
	opts := ooc.RunOptions{CheckpointEvery: c.checkpoint}
	var want uint64
	runErr := ooc.RunIGEP(m, core.LUFactor[float64]{}, core.LU{}, opts)
	if runErr == nil {
		want, runErr = m.Digest()
	}
	if cerr := s.Close(); runErr == nil {
		runErr = cerr
	}
	os.RemoveAll(dir)
	if runErr != nil {
		return fmt.Errorf("drill golden n=%d: %w", c.n, runErr)
	}

	total := luBlocks(c.n / c.tile)
	stopOpts := opts
	stopOpts.StopAfter = total * 3 / 5
	s2, m2, dir2, err := newDurable(c)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir2)
	if err := ooc.RunIGEP(m2, core.LUFactor[float64]{}, core.LU{}, stopOpts); !errors.Is(err, ooc.ErrStopped) {
		s2.Abandon()
		return fmt.Errorf("drill n=%d: stop run returned %v, want ErrStopped", c.n, err)
	}
	s2.Abandon() // the simulated kill: no sync, no close

	start := time.Now()
	s3, err := ooc.Open(dir2, ooc.Config{PageSize: 4096, CacheSize: c.cache, Compress: c.compress})
	if err != nil {
		return fmt.Errorf("drill n=%d: reopen: %w", c.n, err)
	}
	info, err := s3.Recover()
	recovery := time.Since(start)
	if err != nil {
		s3.Abandon()
		return fmt.Errorf("drill n=%d: recover: %w", c.n, err)
	}
	m3 := ooc.NewMatrix(s3, c.n, 0, ooc.MortonTiledLayout(c.tile))
	resumeOpts := opts
	resumeOpts.StartBlock = info.Frontier
	var resumeErr error
	resumeWall := TimeIt(func() {
		resumeErr = ooc.RunIGEP(m3, core.LUFactor[float64]{}, core.LU{}, resumeOpts)
	})
	var got uint64
	if resumeErr == nil {
		got, resumeErr = m3.Digest()
	}
	if cerr := s3.Close(); resumeErr == nil {
		resumeErr = cerr
	}
	if resumeErr != nil {
		return fmt.Errorf("drill n=%d: resume: %w", c.n, resumeErr)
	}
	if got != want {
		return fmt.Errorf("drill n=%d: resumed digest %016x != uninterrupted %016x", c.n, got, want)
	}
	Record(Row{Engine: "I-GEP(recover)", N: c.n, Param: c.param(), Wall: resumeWall,
		Extra: map[string]float64{
			"recovery_ns":    float64(recovery.Nanoseconds()),
			"frontier":       float64(info.Frontier),
			"blocks_total":   float64(total),
			"replayed_tiles": float64(info.Tiles),
			"replayed_bytes": float64(info.Bytes),
		}})
	t.Row(c.n, fmt.Sprintf("%d/%d", info.Frontier, total), info.Tiles,
		recovery, resumeWall, fmt.Sprintf("%016x ok", got))
	return nil
}

func minInt2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
