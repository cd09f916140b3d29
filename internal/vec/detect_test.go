//go:build linux && amd64 && !race

package vec

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// cpuFlags returns the CPU flags the kernel lists in /proc/cpuinfo, or
// skips the test where it lists none.
func cpuFlags(t *testing.T) []string {
	t.Helper()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			return strings.Fields(flags)
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
	return nil
}

// TestAVX2SelectedWhereListed fails when the kernel lists avx2 among
// the CPU flags but the tier is not selected: a detection bug would
// otherwise leave the assembly untested while every other test passes
// on the Go loops.
func TestAVX2SelectedWhereListed(t *testing.T) {
	listed := slices.Contains(cpuFlags(t), "avx2")
	if listed && !hasAVX2 {
		t.Fatal("/proc/cpuinfo lists avx2 but the AVX2 tier is not selected")
	}
	t.Logf("avx2 listed: %v, tier selected: %v", listed, hasAVX2)
}

// TestAVX512SelectedWhereListed fails when the kernel lists avx512f
// among the CPU flags but the AVX-512 tier is not selected. Its log
// line names the tier the assembly tests ran on this host.
func TestAVX512SelectedWhereListed(t *testing.T) {
	listed := slices.Contains(cpuFlags(t), "avx512f")
	if listed && !hasAVX512 {
		t.Fatal("/proc/cpuinfo lists avx512f but the AVX-512 tier is not selected")
	}
	t.Logf("avx512f listed: %v, tier selected: %v; float64 rows run %s", listed, hasAVX512, Tier())
}
