//go:build linux && amd64 && !race

package vec

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2SelectedWhereListed fails when the kernel lists avx2 among
// the CPU flags but the tier is not selected: a detection bug would
// otherwise leave the assembly untested while every other test passes
// on the Go loops.
func TestAVX2SelectedWhereListed(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		listed := slices.Contains(strings.Fields(flags), "avx2")
		if listed && !hasAVX2 {
			t.Fatal("/proc/cpuinfo lists avx2 but the AVX2 tier is not selected")
		}
		t.Logf("avx2 listed: %v, tier selected: %v", listed, hasAVX2)
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
