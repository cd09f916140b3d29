package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"gep/internal/bench"
)

// hostInfo is the host guard recorded with every result.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	PeakGFLOPS float64 `json:"peak_gflops"`
	// ThreadBudget is the most compute threads the workload runs at
	// once (runtime workers, or executor workers plus client
	// connections for the service).
	ThreadBudget int `json:"thread_budget"`
	// Oversubscribed is set when ThreadBudget exceeds NProc: such a run
	// is not evidence of scaling and is left out of comparison.
	Oversubscribed bool `json:"oversubscribed"`
}

// threadBudget is each workload's compute-thread budget: the default
// 2-worker runtime in-process, and a 2-worker job runtime on one
// executor with 2 client connections for the service.
var threadBudget = map[string]int{wDense: 2, wServe: 2, wOOC: 2}

func probeHost(workload string) hostInfo {
	h := hostInfo{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		PeakGFLOPS:   bench.PeakGFLOPS(),
		ThreadBudget: threadBudget[workload],
	}
	h.Oversubscribed = h.ThreadBudget > h.NProc || h.GOMAXPROCS > h.NProc
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// resetPeakRSS resets the VmHWM of process pid (0 = this process), so a
// later peakRSSMiB reads the peak since now.
func resetPeakRSS(pid int) error {
	return os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0)
}

// peakRSSMiB returns VmHWM of process pid (0 = this process) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", procPath(pid, "status"))
}

func procPath(pid int, name string) string {
	if pid == 0 {
		return "/proc/self/" + name
	}
	return fmt.Sprintf("/proc/%d/%s", pid, name)
}
