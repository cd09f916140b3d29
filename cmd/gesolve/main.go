// Command gesolve solves a dense linear system A·x = b with
// cache-oblivious LU decomposition.
//
// Usage:
//
//	gesolve [-base n] [-algo igep|tiled|gep] [-pivot none|partial|tournament] < system.txt
//	gesolve -random n [-seed s] [-algo ...]
//
// Input format: a line with n, then n lines of n matrix entries, then
// one line of n right-hand-side entries. The solution vector and the
// max-norm residual are printed. With -pivot none (the default) the
// matrix must be factorizable without pivoting (e.g. diagonally
// dominant) and gesolve reports the residual so ill-suited inputs are
// visible; -pivot partial (scalar GEPP oracle) and -pivot tournament
// (communication-avoiding CALU) accept any nonsingular matrix and
// report singular ones.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"gep/internal/linalg"
	"gep/internal/matrix"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is gesolve with its arguments, output streams and exit status
// explicit: the solution goes to stdout, diagnostics to stderr. Usage
// errors exit 2, a singular matrix 3, any other failure 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gesolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.Int("base", 64, "I-GEP base-case / tile size (>= 1)")
	algo := fs.String("algo", "igep", "factorization: igep, tiled or gep (ignored with -pivot)")
	pivot := fs.String("pivot", "none", "row pivoting: none, partial or tournament")
	random := fs.Int("random", 0, "solve a random diagonally dominant n×n system instead of reading stdin")
	seed := fs.Int64("seed", 1, "seed for -random")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *base < 1 {
		fmt.Fprintf(stderr, "gesolve: -base must be >= 1, got %d\n", *base)
		fs.Usage()
		return 2
	}
	if *random < 0 {
		fmt.Fprintf(stderr, "gesolve: -random must be >= 0, got %d\n", *random)
		fs.Usage()
		return 2
	}

	a, b, err := loadSystem(*random, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "gesolve: %v\n", err)
		return 1
	}
	n := a.N()

	var x []float64
	switch *pivot {
	case "partial", "tournament":
		var f *linalg.LUP
		if *pivot == "partial" {
			f, err = linalg.Factor(a)
		} else {
			f, err = linalg.FactorCAParallel(a)
		}
		if err != nil {
			if errors.Is(err, linalg.ErrSingular) {
				fmt.Fprintf(stderr, "gesolve: matrix is singular to working precision (%v)\n", err)
				return 3
			}
			fmt.Fprintf(stderr, "gesolve: %v\n", err)
			return 1
		}
		x = f.Solve(b)
	case "none":
		lu := a.Clone()
		switch *algo {
		case "igep":
			linalg.LUIGEP(lu, *base)
		case "tiled":
			linalg.LUTiled(lu, *base)
		case "gep":
			linalg.LUGEPOpt(lu)
		default:
			fmt.Fprintf(stderr, "gesolve: unknown -algo %q\n", *algo)
			return 2
		}
		x = linalg.SolveLU(lu, b)
	default:
		fmt.Fprintf(stderr, "gesolve: unknown -pivot %q\n", *pivot)
		return 2
	}

	parts := make([]string, n)
	for i, v := range x {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	fmt.Fprintln(stdout, strings.Join(parts, " "))
	fmt.Fprintf(stderr, "residual (max-norm of Ax-b): %g\n", linalg.Residual(a, x, b))
	return 0
}

func loadSystem(random int, seed int64) (*matrix.Dense[float64], []float64, error) {
	if random > 0 {
		rng := rand.New(rand.NewSource(seed))
		a := matrix.NewSquare[float64](random)
		a.Apply(func(i, j int, _ float64) float64 {
			if i == j {
				return float64(2*random) + rng.Float64()
			}
			return rng.Float64()*2 - 1
		})
		b := make([]float64, random)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		return a, b, nil
	}
	br := bufio.NewReader(os.Stdin)
	var n int
	if _, err := fmt.Fscan(br, &n); err != nil {
		return nil, nil, fmt.Errorf("reading n: %w", err)
	}
	if n <= 0 {
		return nil, nil, fmt.Errorf("bad dimension %d", n)
	}
	a := matrix.NewSquare[float64](n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var v float64
			if _, err := fmt.Fscan(br, &v); err != nil {
				return nil, nil, fmt.Errorf("reading A[%d][%d]: %w", i, j, err)
			}
			a.Set(i, j, v)
		}
	}
	b := make([]float64, n)
	for i := range b {
		if _, err := fmt.Fscan(br, &b[i]); err != nil {
			return nil, nil, fmt.Errorf("reading b[%d]: %w", i, err)
		}
	}
	return a, b, nil
}
