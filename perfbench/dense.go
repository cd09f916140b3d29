package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"gep"
	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/metrics"
)

// dense-facade: in-process facade calls from one caller on the default
// runtime (GOMAXPROCS workers). Each round calls every op once, on the
// next of densePool seeded inputs; the timed phase runs whole rounds.

const densePool = 2

var denseClasses = []string{"mm", "apsp", "lu", "calu"}

type denseRunner struct {
	cfg  config
	n    int
	rep  *report
	ver  *verifier
	tr   *tracer
	work *gep.Matrix[float64]

	mmA, mmB, fw, luA, caA []*gep.Matrix[float64]
	luB, caB               [][]float64

	// Traced-round accumulators.
	counters              map[string]int64
	tracedOps             int
	caluFactor, caluSolve []float64
	byTrace               map[bool]map[string][]float64
}

func newDenseRunner(cfg config, rep *report) *denseRunner {
	n := cfg.DenseN
	d := &denseRunner{
		cfg: cfg, n: n, rep: rep, ver: newVerifier(),
		work:     gep.NewMatrix[float64](n),
		counters: map[string]int64{},
		byTrace:  map[bool]map[string][]float64{false: {}, true: {}},
	}
	if cfg.Trace {
		d.tr = &tracer{}
	}
	for p := 0; p < densePool; p++ {
		rng := newRand(cfg.Seed, int64(p))
		d.mmA = append(d.mmA, dense(uniform(rng, n), n))
		d.mmB = append(d.mmB, dense(uniform(rng, n), n))
		d.fw = append(d.fw, dense(weights(rng, n, 0.25), n))
		d.luA = append(d.luA, dense(dominant(rng, n), n))
		d.luB = append(d.luB, vector(rng, n))
		d.caA = append(d.caA, dense(uniform(rng, n), n))
		d.caB = append(d.caB, vector(rng, n))
	}
	return d
}

// do runs op class on input p and returns its time to solution. A traced
// op also reads the counters around the call and records spans; that
// work is inside the returned time, so traced and untraced rounds
// compare to give the tracing overhead.
func (d *denseRunner) do(class string, p int, traced bool) float64 {
	d.rep.attempts++
	var tr *tracer
	if traced {
		tr = d.tr
	}
	op := fmt.Sprintf("%s#%d", class, d.rep.attempts)
	// Inputs are staged before the clock starts.
	switch class {
	case "mm":
		d.work.Fill(0)
	case "apsp":
		d.work.CopyFrom(d.fw[p])
	case "lu":
		d.work.CopyFrom(d.luA[p])
	}
	var before map[string]int64
	start := time.Now()
	if traced {
		before = metrics.Snapshot()
	}
	var x []float64
	var err error
	switch class {
	case "mm":
		gep.MultiplyParallel(d.work, d.mmA[p], d.mmB[p])
	case "apsp":
		gep.FloydWarshallParallel(d.work)
	case "lu":
		x = gep.Solve(d.work, d.luB[p])
	case "calu":
		var f *gep.PivotedLU
		t0 := time.Now()
		f, err = gep.FactorCAParallel(d.caA[p])
		t1 := time.Now()
		if err == nil {
			x = f.Solve(d.caB[p])
		}
		if traced {
			t2 := time.Now()
			d.caluFactor = append(d.caluFactor, t1.Sub(t0).Seconds())
			d.caluSolve = append(d.caluSolve, t2.Sub(t1).Seconds())
			tr.add("linalg.FactorCAParallel", op, 0, t0, t1)
			tr.add("linalg.LUP.Solve", op, 0, t1, t2)
		}
	}
	if traced {
		for k, v := range metrics.Diff(before, metrics.Snapshot()) {
			d.counters[k] += v
		}
		d.tracedOps++
	}
	end := time.Now()
	tr.add("gep."+class, op, 0, start, end)
	if err != nil {
		d.rep.fail("%s input %d: %v", class, p, err)
		return end.Sub(start).Seconds()
	}
	d.capture(class, p, x)
	return end.Sub(start).Seconds()
}

// capture hands an op's output to the verifier (outside the timing).
func (d *denseRunner) capture(class string, p int, x []float64) {
	n := d.n
	rng := newRand(d.cfg.Seed, 100+int64(p))
	switch class {
	case "mm":
		a, b := d.mmA[p].Data(), d.mmB[p].Data()
		d.ver.add(class, p, digest(d.work.Data()), d.workCopy, func(c []float64) error {
			return checkProduct(a, b, c, n, rng)
		})
	case "apsp":
		w := d.fw[p].Data()
		d.ver.add(class, p, digest(d.work.Data()), d.workCopy, func(dist []float64) error {
			return checkDistanceRows(w, dist, n, sampleSources(rng, n, 8))
		})
	case "lu", "calu":
		a, b := d.luA[p].Data(), d.luB[p]
		if class == "calu" {
			a, b = d.caA[p].Data(), d.caB[p]
		}
		d.ver.add(class, p, digest(x), func() []float64 { return x }, func(x []float64) error {
			return checkSolve(a, x, b, n)
		})
	}
}

func (d *denseRunner) workCopy() []float64 { return append([]float64(nil), d.work.Data()...) }

func runDense(cfg config) (*report, error) {
	rep := newReport(wDense)
	d := newDenseRunner(cfg, rep)

	for s := 0; s < cfg.Setups; s++ {
		start := time.Now()
		for _, class := range denseClasses {
			d.do(class, s%densePool, false)
		}
		rep.setups = append(rep.setups, time.Since(start).Seconds())
	}

	debug.FreeOSMemory()
	rssErr := resetPeakRSS(0)
	start := time.Now()
	for round := 0; ; round++ {
		traced := cfg.Trace && round%2 == 0
		for _, class := range denseClasses {
			t := d.do(class, round%densePool, traced)
			rep.samples[class] = append(rep.samples[class], t)
			d.byTrace[traced][class] = append(d.byTrace[traced][class], t)
			// Collecting between ops (untimed) makes the peak the live set
			// plus one op's garbage, not a matter of when a background
			// cycle ran, which moves the peak by a whole matrix.
			runtime.GC()
		}
		rep.ops += len(denseClasses)
		if time.Since(start).Seconds() >= cfg.Seconds && (!cfg.Trace || round >= 1) {
			break
		}
	}
	rep.wall = time.Since(start).Seconds()
	var err error
	if rep.peakRSS, err = peakRSSMiB(0); err != nil {
		return nil, err
	}
	if rssErr != nil {
		rep.note("peak RSS not reset before the timed phase (%v): it includes set-up", rssErr)
	}

	d.ver.verify(rep, cfg.corrupt)
	rep.e2e["apsp_s"] = median(rep.samples["apsp"])
	rep.e2e["calu_s"] = median(rep.samples["calu"])
	rep.note("samples per op: %d; inputs per op: %d; n = %d", len(rep.samples["mm"]), densePool, d.n)
	if cfg.Trace {
		d.layers()
		if err := d.tr.write(filepath.Join(cfg.Out, "traces", traceName(cfg))); err != nil {
			return nil, err
		}
		printSelfTimes(rep, d.tr)
	}
	return rep, nil
}

// layers fills the per-layer metrics: those read from the traced rounds,
// then the extra calls that only the traced run makes.
func (d *denseRunner) layers() {
	L := d.rep.layer
	L["gep.apsp_s"] = median(d.rep.samples["apsp"])
	L["gep.calu_s"] = median(d.rep.samples["calu"])
	L["linalg.calu_factor_s"] = median(d.caluFactor)
	L["linalg.calu_subst_s"] = median(d.caluSolve)
	c := d.counters
	L["linalg.calu_edge_share"] = ratio(float64(c["linalg.pivot.trailing.edge"]), float64(c["linalg.pivot.trailing.tiles"]))
	counterLayers(L, c, d.tracedOps)
	L["trace.overhead"] = traceOverhead(d.byTrace)

	n := d.n
	// One hand base case per facade call at n=64.
	b := 64
	sub := func(m *gep.Matrix[float64]) *gep.Matrix[float64] { return m.Sub(0, 0, b, b).Clone() }
	mA, mB, fw, lu := sub(d.mmA[0]), sub(d.mmB[0]), sub(d.fw[0]), sub(d.luA[0])
	work := gep.NewMatrix[float64](b)
	tMM := repeatMedian(probeReps, func() { work.Fill(0) }, func() { gep.Multiply(work, mA, mB) })
	tFW := repeatMedian(probeReps, func() { work.CopyFrom(fw) }, func() { gep.FloydWarshall(work) })
	tLU := repeatMedian(probeReps, func() { work.CopyFrom(lu) }, func() { gep.Factorize(work) })
	L["gep.base_gflops.mm"] = 2 * cube(b) / tMM / 1e9
	L["gep.base_gflops.fw"] = 2 * cube(b) / tFW / 1e9
	L["gep.base_gflops.lu"] = linalg.GEFlops(b) / tLU / 1e9

	// Serial twins at n.
	d.work.Fill(0)
	sMM := timeIt(d.tr, "gep.Multiply", func() { gep.Multiply(d.work, d.mmA[0], d.mmB[0]) })
	d.work.CopyFrom(d.fw[0])
	sFW := timeIt(d.tr, "gep.FloydWarshall", func() { gep.FloydWarshall(d.work) })
	d.work.CopyFrom(d.luA[0])
	sLU := timeIt(d.tr, "linalg.LUIGEP", func() { linalg.LUIGEP(d.work, 64) })
	L["linalg.lu_factor_s"] = sLU
	L["linalg.lu_subst_s"] = timeIt(d.tr, "linalg.SolveLU", func() { linalg.SolveLU(d.work, d.luB[0]) })
	sCA := timeIt(d.tr, "gep.FactorCA+Solve", func() {
		if f, err := gep.FactorCA(d.caA[0]); err == nil {
			f.Solve(d.caB[0])
		}
	})
	L["par.speedup.mm"] = ratio(sMM, median(d.rep.samples["mm"]))
	L["par.speedup.fw"] = ratio(sFW, median(d.rep.samples["apsp"]))
	L["par.speedup.calu"] = ratio(sCA, median(d.rep.samples["calu"]))
	L["gep.overhead_share.mm"] = 1 - kernelTime(n, b, core.Full{}, tMM)/sMM
	L["gep.overhead_share.fw"] = 1 - kernelTime(n, b, core.Full{}, tFW)/sFW
	L["gep.overhead_share.lu"] = 1 - kernelTime(n, b, core.LU{}, tLU)/sLU
}
