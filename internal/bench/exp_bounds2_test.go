package bench

import (
	"io"
	"testing"
)

// TestBounds2TracedCounts runs bounds2's in-core trace and out-of-core
// leg at small scale, without the wall-clock leg, and pins their
// counts to the rows of results/json/BENCH_bounds2.json: simulated LRU
// misses of the traced MulStrassenGeneric runs, and tile reads and
// writes of RunStrassen. A change in the order in which the Strassen
// schedule or its classical leaves touch memory moves them.
func TestBounds2TracedCounts(t *testing.T) {
	want := map[string]map[string]float64{
		"MulFused incore M=2048 model=classical":      {"misses": 10752},
		"MulStrassen incore M=2048 model=strassen":    {"misses": 21728},
		"MulFused incore M=8192 model=classical":      {"misses": 5632},
		"MulStrassen incore M=8192 model=strassen":    {"misses": 12594},
		"MulFused ooc M=24576 B=16 model=classical":   {"tile_reads": 1024, "tile_writes": 64},
		"MulStrassen ooc M=24576 B=16 model=strassen": {"tile_reads": 1501, "tile_writes": 940},
	}
	StartReport(Experiment{Name: "bounds2"}, Small)
	err := bounds2InCore(io.Discard, Small)
	if err == nil {
		err = bounds2OOC(io.Discard, Small)
	}
	r := FinishReport()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		key := row.Engine + " " + row.Param
		counts, ok := want[key]
		if !ok {
			t.Errorf("unexpected row %q", key)
			continue
		}
		delete(want, key)
		for name, v := range counts {
			if got := row.Extra[name]; got != v {
				t.Errorf("%s: %s = %v, want %v", key, name, got, v)
			}
		}
	}
	for key := range want {
		t.Errorf("row %q not recorded", key)
	}
}
