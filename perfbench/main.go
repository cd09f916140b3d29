// Command perfbench is the repository's benchmark. It runs one workload
// against the code of the checkout it was built from, checks every
// output with an independent oracle outside the timed phase, prints the
// workload's metrics by name and unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 they are the per-layer ones, measured by timing the
// benchmark's calls into each module's public functions and reading the
// counters around them. Spans of a traced run are written to
// <out>/traces/. Run it through run.sh, which builds it and gep-server:
//
//	bash perfbench/run.sh --workload dense-facade --seed 1 --seconds 30 --trace 0
//
// The workload "all" runs the three workloads in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// config is one invocation's settings. Sizes default to the benchmark's
// workloads; the smoke test shrinks them.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Out      string // writable scratch directory inside the checkout
	Server   string // gep-server binary, for serve-jobs
	Setups   int    // set-ups per run; setup_s is their median

	DenseN  int // dense-facade matrix side
	ServeN  int // serve-jobs matrix side
	OOCN    int // ooc-tiles matrix side
	OOCTile int // ooc-tiles tile side

	// corrupt perturbs the reference output of every oracle before it
	// is checked; the smoke test uses it to prove mismatches count.
	corrupt bool
}

func defaultConfig() config {
	return config{Setups: 3, DenseN: 1024, ServeN: 256, OOCN: 512, OOCTile: 64}
}

// report is what a workload run measured.
type report struct {
	workload string
	host     hostInfo
	setups   []float64            // seconds per set-up
	samples  map[string][]float64 // op class → times to solution, s
	ops      int                  // ops completed in the timed phase
	wall     float64              // timed phase wall time, s
	peakRSS  float64              // MiB
	attempts int
	failures []string
	e2e      map[string]float64 // printed-only end-to-end values
	layer    map[string]float64 // per-layer values (traced run)
	notes    []string           // extra human-readable lines
}

func newReport(workload string) *report {
	return &report{
		workload: workload,
		samples:  map[string][]float64{},
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the JSON line that ends a workload's report, for tooling.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.Workload, "workload", "", "dense-facade, serve-jobs, ooc-tiles, or all")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.StringVar(&cfg.Out, "out", ".bench_build", "scratch directory for stores, traces and result records")
	flag.StringVar(&cfg.Server, "server", ".bench_build/gep-server", "gep-server binary built from this checkout")
	catalogue := flag.Bool("catalogue", false, "print the metric catalogue as markdown tables and exit")
	flag.Parse()
	if *catalogue {
		fmt.Print(catalogueMarkdown())
		return
	}
	cfg.Trace = *trace == 1
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || cfg.Seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if cfg.Trace {
		cfg.Setups = 1 // setup_s is not reported; one warm-up suffices
	}
	workloads := []string{cfg.Workload}
	if cfg.Workload == "all" {
		workloads = workloadNames
	}
	// Each workload's report ends with its result line.
	for _, w := range workloads {
		c := cfg
		c.Workload = w
		rep, err := run(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			os.Exit(1)
		}
		res := summarize(c, rep)
		printReport(os.Stdout, c, rep, res)
		b, err := json.Marshal(res)
		if err == nil {
			err = saveRecord(c, rep, res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
}

// run executes one workload.
func run(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, err
	}
	var (
		rep *report
		err error
	)
	switch cfg.Workload {
	case wDense:
		rep, err = runDense(cfg)
	case wServe:
		rep, err = runServe(cfg)
	case wOOC:
		rep, err = runOOC(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s or all)", cfg.Workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	rep.host = probeHost(cfg.Workload)
	if cfg.Trace {
		rep.layer["core.peak_gflops"] = rep.host.PeakGFLOPS
		tileKernelLayers(rep.layer)
	}
	return rep, nil
}

// summarize turns a report into its result line.
func summarize(cfg config, rep *report) *result {
	res := &result{
		Attempted: rep.attempts,
		Failed:    len(rep.failures),
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
	}
	res.Correct = res.Failed == 0
	values := map[string]float64{
		"setup_s":          median(rep.setups),
		"peak_rss_mib":     rep.peakRSS,
		"throughput_ops_s": ratio(float64(rep.ops), rep.wall),
		"mm_s":             median(rep.samples["mm"]),
		"lu_s":             median(rep.samples["lu"]),
	}
	defs := endToEnd
	if cfg.Trace {
		values, defs = rep.layer, perLayer
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rep.e2e["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	return res
}

// printReport writes the human-readable report: the host guard, every
// end-to-end metric the workload defines, per-layer values and notes.
func printReport(w *os.File, cfg config, rep *report, res *result) {
	h := rep.host
	fmt.Fprintf(w, "# workload %s  seed %d  seconds %g  trace %v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Fprintf(w, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q peak_gflops=%.3f thread_budget=%d oversubscribed=%v\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.PeakGFLOPS, h.ThreadBudget, h.Oversubscribed)
	if h.Oversubscribed {
		fmt.Fprintln(w, "# OVERSUBSCRIBED: more compute threads than cores; leave this run out of comparison")
	}
	if !cfg.Trace {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "%-22s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
		}
	}
	for _, k := range sortedKeys(rep.e2e) {
		fmt.Fprintf(w, "%-22s %14.6g %s\n", k, rep.e2e[k], unitOf(k))
	}
	if cfg.Trace {
		for _, d := range perLayer {
			if d.Workload == "all" || d.Workload == cfg.Workload {
				fmt.Fprintf(w, "%-28s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
			}
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(w, "# FAILED "+f)
	}
}

// saveRecord writes the full result (host guard included) under
// <out>/results/, the record a comparison reads.
func saveRecord(cfg config, rep *report, res *result) error {
	dir := filepath.Join(cfg.Out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"trace":      cfg.Trace,
		"host":       rep.host,
		"comparable": !rep.host.Oversubscribed,
		"result":     res,
		"e2e":        rep.e2e,
		"notes":      rep.notes,
		"failures":   rep.failures,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, map[bool]int{false: 0, true: 1}[cfg.Trace])
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
