package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke test runs every workload at n=64 for a fraction of a second,
// untraced and traced, and checks the result against BENCHMARK.json: every
// metric emitted with its unit, no failed op. It then corrupts one result
// per oracle and checks that each is counted as a failure.

var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "gep-server")
	build := exec.Command("go", "build", "-o", serverBin, "gep/cmd/gep-server")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build gep-server:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace = workload, 7, 0.2, trace
	cfg.Out, cfg.Server, cfg.Setups = t.TempDir(), serverBin, 1
	cfg.DenseN, cfg.ServeN, cfg.OOCN, cfg.OOCTile = 64, 64, 64, 16
	return cfg
}

// benchmarkFile is the part of BENCHMARK.json the test checks.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, catalogue %v", names, workloadNames)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, catalogue has %d", len(f.EndToEnd), len(endToEnd))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, catalogue %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, catalogue has %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, catalogue %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}

func TestReadmeCatalogueIsCurrent(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), catalogueMarkdown()) {
		t.Error("README.md catalogue differs from metrics.go; regenerate it with go run . -catalogue")
	}
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				cfg := smokeConfig(t, w, trace)
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := summarize(cfg, rep)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.failures)
				}
				if rep.e2e["error_rate"] != 0 {
					t.Errorf("error_rate = %g", rep.e2e["error_rate"])
				}
				type named struct{ Name, Unit string }
				var want []named
				if trace {
					for _, m := range f.PerLayer {
						want = append(want, named{m.Name, m.Unit})
					}
				} else {
					for _, m := range f.EndToEnd {
						want = append(want, named{m.Name, m.Unit})
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !trace && !(got.Value > 0):
						t.Errorf("%s = %g, end-to-end metrics are never 0", m.Name, got.Value)
					}
				}
				if trace && !(res.Metrics["trace.overhead"].Value > 0) {
					t.Errorf("trace.overhead = %g", res.Metrics["trace.overhead"].Value)
				}
			})
		}
	}
}

// oracleClasses are the op classes of each workload; each has its own
// oracle (Freivalds, L·(U·x), residual, Dijkstra, BFS, resume digest).
var oracleClasses = map[string][]string{
	wDense: {"mm", "apsp", "lu", "calu"},
	wServe: {"mm", "lu", "apsp", "closure"},
	wOOC:   {"lu", "mm", "resume"},
}

func TestCorruptedResultsCount(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := smokeConfig(t, w, false)
			cfg.corrupt = true
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := summarize(cfg, rep)
			if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if !(rep.e2e["error_rate"] > 0) {
				t.Errorf("error_rate = %g", rep.e2e["error_rate"])
			}
			for _, class := range oracleClasses[w] {
				found := false
				for _, f := range rep.failures {
					found = found || strings.HasPrefix(f, class+" ")
				}
				if !found {
					t.Errorf("corrupted %s result not counted: %v", class, rep.failures)
				}
			}
		})
	}
}
