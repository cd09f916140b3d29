package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"gep/internal/core"
	"gep/internal/ooc"
)

// runOOC implements `gep-bench oocrun`: a single resumable out-of-core
// I-GEP run against a durable striped store, built for the crash-
// recovery matrix (scripts/recovery-matrix.sh). A fresh run creates
// the store, loads a deterministic input derived from -seed, commits
// sync point 0, and computes with a checkpoint every -checkpoint
// blocks, announcing each committed sync point as a "SYNC <tag>" line.
// With -hold T it parks forever right after committing sync point T —
// the harness SIGKILLs it there, then reruns with -resume, which
// recovers the store, resumes from the reported frontier, and prints
// the content digest; bit-identical recovery means the digest matches
// an uninterrupted run's.
//
// Output protocol (one token-prefixed line each, unbuffered):
//
//	LOADED                              input durable at sync point 0
//	SYNC <tag>                          sync point <tag> committed
//	HOLD <tag>                          parked; safe to SIGKILL
//	RECOVER frontier=<t> tiles=<n> bytes=<b> torn=<bool>
//	BLOCKS run=<n>                      blocks executed this process
//	DIGEST <16 hex digits>              XXH64 of the final contents
func runOOC(args []string) int {
	fs := flag.NewFlagSet("oocrun", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	n := fs.Int("n", 256, "matrix side (power of two)")
	tile := fs.Int("tile", 32, "tile side")
	stripes := fs.Int("stripes", 2, "backing stripe files")
	unit := fs.Int("unit", 0, "stripe unit in bytes (0 = default)")
	cache := fs.Int64("cache", 1<<24, "tile cache budget in bytes")
	checkpoint := fs.Int64("checkpoint", 16, "base-case blocks per durable sync point")
	compress := fs.Bool("compress", false, "compress tile payloads")
	opName := fs.String("op", "lu", "update op: lu, gauss, or fw")
	seed := fs.Int64("seed", 1, "input seed")
	faults := fs.Int64("faults", 0, "inject a transient I/O fault every N raw transfers")
	resume := fs.Bool("resume", false, "recover an existing store and resume from its frontier")
	hold := fs.Int64("hold", -1, "park forever after committing the first sync point >= this tag (-1 = never)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gep-bench oocrun -dir DIR [flags]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *dir == "" || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	var op core.Op[float64]
	var set core.UpdateSet
	switch *opName {
	case "lu":
		op, set = core.LUFactor[float64]{}, core.LU{}
	case "gauss":
		op, set = core.GaussElim[float64]{}, core.Gaussian{}
	case "fw":
		op, set = core.MinPlus[float64]{}, core.Full{}
	default:
		fmt.Fprintf(os.Stderr, "gep-bench: oocrun: unknown op %q (want lu, gauss, or fw)\n", *opName)
		return 2
	}

	holdAt := func(tag int64) {
		if *hold >= 0 && tag >= *hold {
			fmt.Printf("HOLD %d\n", tag)
			select {} // parked for SIGKILL; never returns
		}
	}

	cfg := ooc.Config{
		PageSize:   4096,
		CacheSize:  *cache,
		Stripes:    *stripes,
		StripeUnit: *unit,
		Compress:   *compress,
		FaultEvery: *faults,
	}
	var (
		s     *ooc.Store
		err   error
		start int64
	)
	if *resume {
		// Geometry lives in the journal header; adopt it.
		cfg.Stripes, cfg.StripeUnit = 0, 0
		s, err = ooc.Open(*dir, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gep-bench: oocrun: %v\n", err)
			return 1
		}
		info, rerr := s.Recover()
		fmt.Printf("RECOVER frontier=%d tiles=%d bytes=%d torn=%v\n",
			info.Frontier, info.Tiles, info.Bytes, info.Torn)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "gep-bench: oocrun: recover: %v\n", rerr)
			return 1
		}
		if info.Frontier < 0 {
			fmt.Fprintln(os.Stderr, "gep-bench: oocrun: no committed sync point; nothing to resume")
			return 1
		}
		start = info.Frontier
	} else {
		s, err = ooc.CreateAt(*dir, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gep-bench: oocrun: %v\n", err)
			return 1
		}
	}

	m := ooc.NewMatrix(s, *n, 0, ooc.MortonTiledLayout(*tile))
	if !*resume {
		if err := m.LoadFunc(func(i, j int) float64 {
			return cellValue(*seed, *n, i, j)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "gep-bench: oocrun: load: %v\n", err)
			return 1
		}
		if err := s.Checkpoint(0); err != nil {
			fmt.Fprintf(os.Stderr, "gep-bench: oocrun: %v\n", err)
			return 1
		}
		fmt.Println("LOADED")
		fmt.Println("SYNC 0")
		holdAt(0)
	}

	var ran int64
	err = ooc.RunIGEP(m, op, set, ooc.RunOptions{
		CheckpointEvery: *checkpoint,
		StartBlock:      start,
		OnCheckpoint: func(tag int64) {
			fmt.Printf("SYNC %d\n", tag)
			ran = tag - start
			holdAt(tag)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gep-bench: oocrun: run: %v\n", err)
		return 1
	}
	fmt.Printf("BLOCKS run=%d\n", ran)

	digest, err := m.Digest()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gep-bench: oocrun: digest: %v\n", err)
		return 1
	}
	fmt.Printf("DIGEST %016x\n", digest)
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "gep-bench: oocrun: close: %v\n", err)
		return 1
	}
	return 0
}

// cellValue is the deterministic input generator: cell (i, j) depends
// only on (seed, n, i, j) — not on evaluation order — so a fresh run
// and a resumed run agree on the input by construction. The matrix is
// diagonally dominant, keeping the division-based ops finite.
func cellValue(seed int64, n, i, j int) float64 {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	binary.LittleEndian.PutUint64(b[16:], uint64(j))
	u := float64(ooc.Checksum(b[:])>>11) / float64(int64(1)<<53) // [0, 1)
	if i == j {
		return float64(n) + u
	}
	return 2*u - 1
}
