// Out-of-core demo: run Floyd-Warshall on a matrix that lives on disk
// under a deliberately tiny RAM budget — the paper's Figure 7 setting.
// The same engine code runs unchanged; only the Grid implementation
// differs. Compare the page traffic of the iterative loop nest against
// cache-oblivious I-GEP, element-at-a-time and tile-granular.
package main

import (
	"fmt"
	"log"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/ooc"
)

func main() {
	const (
		n         = 128      // 128x128 float64 = 128 KB on disk
		pageSize  = 4096     // B
		cacheSize = 16 << 10 // M: only 1/8 of the matrix fits in RAM
	)
	minPlus := core.MinPlus[float64]{}

	// Build the input once in core.
	in := matrix.NewSquare[float64](n)
	in.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return 0
		}
		return float64((i*31+j*17)%255 + 1)
	})

	type result struct {
		name          string
		reads, writes int64 // page or tile transfers
		wait          string
	}
	var results []result
	var reference *matrix.Dense[float64]

	run := func(name string, layout ooc.LayoutFunc, algo func(m *ooc.Matrix) error) {
		store, err := ooc.Create("", ooc.Config{PageSize: pageSize, CacheSize: cacheSize})
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		m := ooc.NewMatrix(store, n, 0, layout)
		if err := m.Load(in); err != nil {
			log.Fatal(err)
		}
		store.ResetStats()
		if err := algo(m); err != nil {
			log.Fatal(err)
		}
		st := store.Stats()
		results = append(results, result{name,
			st.PageReads + st.TileReads, st.PageWrites + st.TileWrites,
			store.IOTime().String()})
		out, err := m.Unload()
		if err != nil {
			log.Fatal(err)
		}
		if reference == nil {
			reference = out
		} else if !out.EqualFunc(reference, func(a, b float64) bool { return a == b }) {
			log.Fatalf("%s computed different distances!", name)
		}
	}

	run("iterative GEP", ooc.RowMajorLayout, func(m *ooc.Matrix) error {
		core.RunGEP[float64](m, minPlus, core.Full{})
		return m.Store().Err()
	})
	run("I-GEP", ooc.MortonTiledLayout(16), func(m *ooc.Matrix) error {
		core.RunIGEP[float64](m, minPlus, core.Full{}, core.WithBaseSize[float64](16))
		return m.Store().Err()
	})
	run("I-GEP tiles", ooc.MortonTiledLayout(16), func(m *ooc.Matrix) error {
		return ooc.RunIGEP(m, minPlus, core.Full{}, ooc.RunOptions{})
	})

	fmt.Printf("out-of-core Floyd-Warshall, n=%d, B=%d B, M=%d KB (matrix %d KB)\n\n",
		n, pageSize, cacheSize>>10, n*n*8>>10)
	fmt.Printf("%-14s  %12s  %12s  %16s\n", "algorithm", "reads", "writes", "modeled I/O wait")
	for _, r := range results {
		fmt.Printf("%-14s  %12d  %12d  %16s\n", r.name, r.reads, r.writes, r.wait)
	}
	fmt.Println("\nall three algorithms produced identical distances ✓")
	fmt.Println("(the paper's Figure 7: GEP waits on I/O orders of magnitude longer,")
	fmt.Println(" and the tile runtime removes the per-element CPU overhead on top)")
}
