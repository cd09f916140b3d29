package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"gep"
	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/metrics"
	"gep/internal/ooc"
)

// ooc-tiles: in-process out-of-core stores, 2 stripes, Morton-tiled, with
// a tile cache of a quarter of one matrix. Each timed round runs an
// in-place LU and a classical multiply (RunStrassen with crossover n),
// each on a fresh temporary store from ooc.Create and timed from Create
// to Close. The durable path runs after the timed phase: one resume op
// per input (an LU on an ooc.CreateAt store, checkpointing every 64
// blocks, stopped at half its blocks and abandoned, untimed; then Open,
// Recover, the resumed RunIGEP, Unload and Close, timed), and in the
// traced run the same LU on a durable store from CreateAt to Close.
// Durable ops wait on fsync, whose time on a shared disk is the disk's,
// not the program's, so no gated metric includes them. Store
// directories are removed untimed.

const (
	oocPool       = 3
	oocStripes    = 2
	oocCheckpoint = 64
)

// oocClasses are the op classes of the timed rounds.
var oocClasses = []string{"lu", "mm"}

type oocRunner struct {
	cfg     config
	n, tile int
	rep     *report
	ver     *verifier
	tr      *tracer
	dir     string
	seq     int
	half    int64 // blocks before the resume op's simulated crash

	luA, mmA, mmB []*gep.Matrix[float64]

	// Traced-op accumulators.
	parts    map[string][]float64 // "<class>.<part>" → seconds per traced op
	stats    map[string]ooc.Stats // by class, summed over traced ops
	tracedN  map[string]int       // traced ops by class
	counters map[string]int64     // metrics deltas over the traced rounds
	mmWords  []float64            // tile words RunStrassen moved, per traced mm op
	byTrace  map[bool]map[string][]float64
}

func (o *oocRunner) storeConfig() ooc.Config {
	return ooc.Config{PageSize: 4096, CacheSize: int64(o.n) * int64(o.n) * 8 / 4, Stripes: oocStripes}
}

func (o *oocRunner) layout() ooc.LayoutFunc { return ooc.MortonTiledLayout(o.tile) }

func (o *oocRunner) nextDir() string {
	o.seq++
	return filepath.Join(o.dir, fmt.Sprintf("s%d", o.seq))
}

// steps runs an op's public calls in order, stopping at the first error;
// in a traced op each call is a span and its time is kept by part.
type steps struct {
	tr     *tracer
	op     string
	parent int
	err    error
	times  map[string]float64
}

func (st *steps) do(name, part string, f func() error) {
	if st.err != nil {
		return
	}
	t0 := time.Now()
	st.err = f()
	t1 := time.Now()
	if st.tr != nil {
		st.tr.add(name, st.op, st.parent, t0, t1)
		st.times[part] += t1.Sub(t0).Seconds()
	}
}

// do runs op class on input p and returns its time to solution. The
// classes are lu and mm on temporary stores, dlu (lu on a durable store)
// and resume.
func (o *oocRunner) do(class string, p int, traced bool) float64 {
	o.rep.attempts++
	var tr *tracer
	if traced {
		tr = o.tr
	}
	op := fmt.Sprintf("%s#%d", class, o.rep.attempts)
	dir := o.dir
	if class == "dlu" || class == "resume" {
		dir = o.nextDir()
		defer os.RemoveAll(dir)
	}
	n, cfg := o.n, o.storeConfig()

	if class == "resume" {
		if err := o.crash(dir, p); err != nil {
			o.rep.fail("resume input %d: interrupted run: %v", p, err)
			return 0
		}
	}

	var before map[string]int64
	start := time.Now()
	if traced {
		before = metrics.Snapshot()
	}
	root := tr.begin("ooc."+class, op, 0)
	st := &steps{tr: tr, op: op, parent: root, times: map[string]float64{}}
	var (
		s     *ooc.Store
		out   *gep.Matrix[float64]
		stats ooc.Stats
	)
	switch class {
	case "lu", "dlu":
		var m *ooc.Matrix
		opts := ooc.RunOptions{Prefetch: true}
		if class == "lu" {
			st.do("ooc.Create", "create", func() (err error) { s, err = ooc.Create(dir, cfg); return })
		} else {
			st.do("ooc.CreateAt", "create", func() (err error) { s, err = ooc.CreateAt(dir, cfg); return })
			opts.CheckpointEvery = oocCheckpoint
		}
		st.do("ooc.LoadTiles", "load", func() error {
			m = ooc.NewMatrix(s, n, 0, o.layout())
			return m.LoadTiles(o.luA[p])
		})
		if class == "dlu" {
			st.do("ooc.Checkpoint", "load", func() error { return s.Checkpoint(0) })
		}
		st.do("ooc.RunIGEP", "run", func() error {
			return ooc.RunIGEP(m, core.LUFactor[float64]{}, core.LU{}, opts)
		})
		st.do("ooc.Unload", "unload", func() (err error) { out, err = m.Unload(); return })
	case "mm":
		var a, b, c *ooc.Matrix
		st.do("ooc.Create", "create", func() (err error) { s, err = ooc.Create(dir, cfg); return })
		st.do("ooc.LoadTiles", "load", func() error {
			bytes := int64(n) * int64(n) * 8
			a = ooc.NewMatrix(s, n, 0, o.layout())
			b = ooc.NewMatrix(s, n, bytes, o.layout())
			c = ooc.NewMatrix(s, n, 2*bytes, o.layout())
			if err := a.LoadTiles(o.mmA[p]); err != nil {
				return err
			}
			return b.LoadTiles(o.mmB[p])
		})
		var moved int64
		st.do("ooc.RunStrassen", "run", func() error {
			before := s.Stats().BytesLogical
			err := ooc.RunStrassen(c, a, b, n, ooc.RunOptions{Prefetch: true})
			moved = s.Stats().BytesLogical - before
			return err
		})
		if traced {
			o.mmWords = append(o.mmWords, float64(moved)/8)
		}
		st.do("ooc.Unload", "unload", func() (err error) { out, err = c.Unload(); return })
	case "resume":
		var m *ooc.Matrix
		var info ooc.RecoveryInfo
		rcfg := cfg
		rcfg.Stripes = 0 // the journal header holds the geometry
		st.do("ooc.Open", "recover", func() (err error) { s, err = ooc.Open(dir, rcfg); return })
		st.do("ooc.Recover", "recover", func() (err error) { info, err = s.Recover(); return })
		st.do("ooc.RunIGEP", "run", func() error {
			m = ooc.NewMatrix(s, n, 0, o.layout())
			return ooc.RunIGEP(m, core.LUFactor[float64]{}, core.LU{},
				ooc.RunOptions{Prefetch: true, CheckpointEvery: oocCheckpoint, StartBlock: info.Frontier})
		})
		st.do("ooc.Unload", "unload", func() (err error) { out, err = m.Unload(); return })
	}
	if s != nil {
		stats = s.Stats()
		if st.err != nil {
			s.Abandon() // a temporary store's files stay; the run's directory is removed at its end
		} else {
			st.do("ooc.Close", "unload", s.Close)
		}
	}
	if traced {
		if slices.Contains(oocClasses, class) {
			for k, v := range metrics.Diff(before, metrics.Snapshot()) {
				o.counters[k] += v
			}
		}
		for part, t := range st.times {
			o.parts[class+"."+part] = append(o.parts[class+"."+part], t)
		}
		o.stats[class] = addStats(o.stats[class], stats)
		o.tracedN[class]++
	}
	tr.end(root)
	elapsed := time.Since(start).Seconds()
	if st.err != nil {
		o.rep.fail("%s input %d: %v", class, p, st.err)
		return elapsed
	}
	o.capture(class, p, flat(out))
	return elapsed
}

// crash runs the untimed first half of a resume op: an LU on a durable
// store that stops after half its blocks and is abandoned like a killed
// process.
func (o *oocRunner) crash(dir string, p int) error {
	s, err := ooc.CreateAt(dir, o.storeConfig())
	if err != nil {
		return err
	}
	m := ooc.NewMatrix(s, o.n, 0, o.layout())
	if err := m.LoadTiles(o.luA[p]); err != nil {
		s.Abandon()
		return err
	}
	if err := s.Checkpoint(0); err != nil {
		s.Abandon()
		return err
	}
	err = ooc.RunIGEP(m, core.LUFactor[float64]{}, core.LU{},
		ooc.RunOptions{Prefetch: true, CheckpointEvery: oocCheckpoint, StopAfter: o.half})
	s.Abandon()
	if !errors.Is(err, ooc.ErrStopped) {
		return fmt.Errorf("want ErrStopped at block %d, got %v", o.half, err)
	}
	return nil
}

// capture hands an op's output to the verifier (outside the timing).
// The durable and resumed LUs must equal the temporary-store LU of the
// same input bit for bit.
func (o *oocRunner) capture(class string, p int, out []float64) {
	n := o.n
	rng := newRand(o.cfg.Seed, 200+int64(p))
	keep := func() []float64 { return out }
	switch class {
	case "lu":
		a := o.luA[p].Data()
		o.ver.add(class, p, digest(out), keep, func(lu []float64) error { return checkLUFactors(a, lu, n, rng) })
	case "mm":
		a, b := o.mmA[p].Data(), o.mmB[p].Data()
		o.ver.add(class, p, digest(out), keep, func(c []float64) error { return checkProduct(a, b, c, n, rng) })
	case "dlu", "resume":
		want, ok := o.ver.reference("lu", p)
		o.ver.add(class, p, digest(out), keep, checkDigest(want, ok))
	}
}

func runOOC(cfg config) (*report, error) {
	rep := newReport(wOOC)
	o := &oocRunner{
		cfg: cfg, n: cfg.OOCN, tile: cfg.OOCTile, rep: rep, ver: newVerifier(),
		dir:      filepath.Join(cfg.Out, fmt.Sprintf("ooc-%d", os.Getpid())),
		parts:    map[string][]float64{},
		stats:    map[string]ooc.Stats{},
		tracedN:  map[string]int{},
		counters: map[string]int64{},
		byTrace:  map[bool]map[string][]float64{false: {}, true: {}},
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.dir)
	if cfg.Trace {
		o.tr = &tracer{}
	}
	o.half = int64(len(core.IGEPBlocks(o.n, o.tile, core.LU{}, true)) / 2)
	for p := 0; p < oocPool; p++ {
		rng := newRand(cfg.Seed, 300+int64(p))
		o.luA = append(o.luA, dense(dominant(rng, o.n), o.n))
		o.mmA = append(o.mmA, dense(uniform(rng, o.n), o.n))
		o.mmB = append(o.mmB, dense(uniform(rng, o.n), o.n))
	}

	for s := 0; s < cfg.Setups; s++ {
		start := time.Now()
		for _, class := range oocClasses {
			o.do(class, s%oocPool, false)
		}
		rep.setups = append(rep.setups, time.Since(start).Seconds())
	}

	debug.FreeOSMemory()
	rssErr := resetPeakRSS(0)
	start := time.Now()
	rounds := 0
	for ; ; rounds++ {
		traced := cfg.Trace && rounds%2 == 0
		for _, class := range oocClasses {
			t := o.do(class, rounds%oocPool, traced)
			rep.samples[class] = append(rep.samples[class], t)
			o.byTrace[traced][class] = append(o.byTrace[traced][class], t)
		}
		rep.ops += len(oocClasses)
		if time.Since(start).Seconds() >= cfg.Seconds && (!cfg.Trace || rounds >= 1) {
			rounds++
			break
		}
		runtime.GC() // the peak is the live set plus one round's garbage
	}
	rep.wall = time.Since(start).Seconds()
	var err error
	if rep.peakRSS, err = peakRSSMiB(0); err != nil {
		return nil, err
	}
	if rssErr != nil {
		rep.note("peak RSS not reset before the timed phase (%v): it includes set-up", rssErr)
	}

	// The durable path, on every input that has a temporary-store LU to
	// compare with.
	for p := 0; p < min(oocPool, rounds); p++ {
		if cfg.Trace {
			rep.samples["dlu"] = append(rep.samples["dlu"], o.do("dlu", p, true))
		}
		rep.samples["resume"] = append(rep.samples["resume"], o.do("resume", p, cfg.Trace))
	}

	o.ver.verify(rep, cfg.corrupt)
	rep.e2e["resume_s"] = median(rep.samples["resume"])
	rep.note("samples per op: %d; inputs per op: %d; n = %d, tile %d, cache %d B, %d stripes; durable ops after the timed phase: checkpoint every %d blocks, crash after %d blocks",
		len(rep.samples["lu"]), oocPool, o.n, o.tile, o.storeConfig().CacheSize, oocStripes, oocCheckpoint, o.half)
	if cfg.Trace {
		o.layers()
		if err := o.tr.write(filepath.Join(cfg.Out, "traces", traceName(cfg))); err != nil {
			return nil, err
		}
		printSelfTimes(rep, o.tr)
	}
	return rep, nil
}

// layers fills the per-layer metrics: those read from the traced rounds
// and the durable ops after them, then the in-core twins that only the
// traced run runs.
func (o *oocRunner) layers() {
	L := o.rep.layer
	part := func(name string) float64 { return median(o.parts[name]) }
	L["ooc.resume_s"] = median(o.rep.samples["resume"])
	L["ooc.load_s"] = part("lu.load") + part("mm.load")
	L["ooc.run_s"] = part("lu.run") + part("mm.run")
	L["ooc.unload_s"] = part("lu.unload") + part("mm.unload")
	L["ooc.recover_s"] = part("resume.recover")

	rounds := float64(o.tracedN["lu"])
	tiles := addStats(o.stats["lu"], o.stats["mm"])
	L["ooc.tile_reads"] = ratio(float64(tiles.TileReads), rounds)
	L["ooc.tile_writes"] = ratio(float64(tiles.TileWrites), rounds)
	L["ooc.bytes_physical"] = ratio(float64(tiles.BytesPhysical), rounds)
	pairs := float64(o.tracedN["resume"])
	journal := addStats(o.stats["dlu"], o.stats["resume"])
	L["ooc.journal_commits"] = ratio(float64(journal.JournalCommits), pairs)
	L["ooc.journal_bytes"] = ratio(float64(journal.JournalBytes), pairs)
	c := func(k string) float64 { return float64(o.counters[k]) }
	L["ooc.tile_hit_ratio"] = ratio(c("ooc.tile.hit"), c("ooc.tile.hit")+c("ooc.tile.fault"))
	L["ooc.prefetch_hit_ratio"] = ratio(c("ooc.prefetch.hit"), c("ooc.prefetch.issued"))
	o.rep.note("prefetches over the traced rounds: %d issued, %d hit, %d skipped (cache full or no slot)",
		o.counters["ooc.prefetch.issued"], o.counters["ooc.prefetch.hit"], o.counters["ooc.prefetch.skip"])
	n := float64(o.n)
	words := float64(o.storeConfig().CacheSize) / 8
	L["ooc.mm_io_vs_bound"] = median(o.mmWords) / (2 * n * n * n / math.Sqrt(words))
	counterLayers(L, o.counters, o.tracedN["lu"]+o.tracedN["mm"])
	L["trace.overhead"] = traceOverhead(o.byTrace)
	L["ooc.durability_ratio.lu"] = ratio(median(o.rep.samples["dlu"]), median(o.rep.samples["lu"]))

	// In-core twins at base 64.
	lu := gep.NewMatrix[float64](o.n)
	tLU := repeatMedian(3, func() { lu.CopyFrom(o.luA[0]) }, func() {
		core.RunIGEP[float64](lu, core.LUFactor[float64]{}, core.LU{}, core.WithBaseSize[float64](64))
	})
	mm := gep.NewMatrix[float64](o.n)
	tMM := repeatMedian(3, func() { mm.Fill(0) }, func() { linalg.MulFused(mm, o.mmA[0], o.mmB[0], 64) })
	L["ooc.incore_ratio.lu"] = ratio(part("lu.run"), tLU)
	L["ooc.incore_ratio.mm"] = ratio(part("mm.run"), tMM)
}

func addStats(a, b ooc.Stats) ooc.Stats {
	a.TileReads += b.TileReads
	a.TileWrites += b.TileWrites
	a.BytesPhysical += b.BytesPhysical
	a.JournalCommits += b.JournalCommits
	a.JournalBytes += b.JournalBytes
	return a
}
