// Command apsp computes all-pairs shortest paths with cache-oblivious
// Floyd-Warshall (I-GEP).
//
// Usage:
//
//	apsp [-base n] [-verify] [-path u,v] < graph.txt
//	apsp -random n,p,maxw [-seed s] [-verify] [-path u,v]
//
// The input format is an edge list: a header line "n m" followed by m
// lines "u v w" (0-based vertices, float weights). The distance matrix
// is written to stdout as n whitespace-separated rows ("inf" for
// unreachable pairs).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"gep/internal/apsp"
)

func main() {
	base := flag.Int("base", 32, "I-GEP base-case size")
	random := flag.String("random", "", "generate a random graph instead of reading stdin: n,p,maxw")
	seed := flag.Int64("seed", 1, "seed for -random")
	verify := flag.Bool("verify", false, "cross-check against the Dijkstra oracle (non-negative weights)")
	pathPair := flag.String("path", "", "also print a shortest path for the pair u,v")
	quiet := flag.Bool("quiet", false, "suppress the distance matrix (summary only)")
	flag.Parse()

	g, err := loadGraph(*random, *seed)
	if err != nil {
		fail(err)
	}
	var u, v int
	if *pathPair != "" {
		if u, v, err = parsePair(*pathPair, g.N); err != nil {
			fail(fmt.Errorf("-path: %w", err))
		}
	}

	d := apsp.Solve(g, *base)

	if *verify {
		want := apsp.AllPairsDijkstra(g)
		for i := 0; i < g.N; i++ {
			for j := 0; j < g.N; j++ {
				if d.At(i, j) != want.At(i, j) {
					fmt.Fprintf(os.Stderr, "apsp: VERIFY FAILED at (%d,%d): %g vs %g\n",
						i, j, d.At(i, j), want.At(i, j))
					os.Exit(1)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "apsp: verified against Dijkstra (%d vertices, %d edges)\n", g.N, g.Edges())
	}

	if !*quiet {
		for i := 0; i < g.N; i++ {
			parts := make([]string, g.N)
			for j := 0; j < g.N; j++ {
				if v := d.At(i, j); math.IsInf(v, 1) {
					parts[j] = "inf"
				} else {
					parts[j] = strconv.FormatFloat(v, 'g', -1, 64)
				}
			}
			fmt.Println(strings.Join(parts, " "))
		}
	}

	if *pathPair != "" {
		p := apsp.Path(g, d, u, v)
		if p == nil {
			fmt.Fprintf(os.Stderr, "apsp: no path from %d to %d\n", u, v)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "path %d->%d (weight %g): %v\n", u, v, d.At(u, v), p)
	}
}

// fail reports err on stderr and exits 1. Errors from package apsp
// already carry its name, so the prefix is added only when missing.
func fail(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "apsp: ") {
		msg = "apsp: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

func loadGraph(random string, seed int64) (*apsp.Graph, error) {
	if random == "" {
		return apsp.ParseEdgeList(os.Stdin)
	}
	parts := strings.Split(random, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("-random wants n,p,maxw, got %q", random)
	}
	n, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, fmt.Errorf("bad n: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("bad n: %d vertices", n)
	}
	p, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return nil, fmt.Errorf("bad p: %w", err)
	}
	maxW, err := strconv.Atoi(parts[2])
	if err != nil {
		return nil, fmt.Errorf("bad maxw: %w", err)
	}
	if maxW < 1 {
		return nil, fmt.Errorf("bad maxw: %d (weights are drawn from 1..maxw)", maxW)
	}
	return apsp.Random(n, p, maxW, seed), nil
}

// parsePair parses "u,v" and checks both are vertices of an n-vertex
// graph.
func parsePair(s string, n int) (int, int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want u,v, got %q", s)
	}
	u, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	v, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, err
	}
	for _, x := range []int{u, v} {
		if x < 0 || x >= n {
			return 0, 0, fmt.Errorf("vertex %d out of range [0,%d)", x, n)
		}
	}
	return u, v, nil
}
