// Package apsp implements all-pairs shortest paths: the paper's §4.1
// workload. It provides Floyd-Warshall in the compared forms (the
// iterative GEP loops and the cache-oblivious I-GEP engine, serial and
// parallel), graph generation and I/O, an independent Dijkstra oracle
// for verification, and path reconstruction.
//
// Key types and entry points:
//
//   - Graph: adjacency-list directed weighted graph, with Random
//     generation, ParseEdgeList/WriteEdgeList I/O, and DistanceMatrix
//     to produce the n×n input the GEP solvers update in place.
//   - FWGEPPure / FWGEP / FWFused: the Floyd-Warshall ladder measured
//     in Figure 8 — textbook triple loop, loop-optimized GEP, and the
//     cache-oblivious I-GEP engine with the fused min-plus op on the
//     A/B/C/D recursion of Figure 6, serial by default and forked by
//     core.WithParallel / core.WithRuntime. FWFused is the one I-GEP
//     path: Solve, the facade, gep-server and cmd/apsp run it, and it
//     equals the iterative loop with the min-plus function bit for
//     bit.
//   - Dijkstra / AllPairsDijkstra / BellmanFord / Johnson: independent
//     oracles used by the tests to validate every Floyd-Warshall
//     variant, including graphs with negative edges.
//   - TransitiveClosure, Reachability, SCC, CondensationDAG:
//     closure-semiring instances of the same GEP computation;
//     TransitiveClosure takes the same engine options as FWFused.
//   - TransitiveClosurePacked / (*Graph).ReachabilityPacked: the same
//     closure over bit-packed matrix.Bits storage — 64 cells per word
//     through the word-parallel and four-Russians kernels (DESIGN.md
//     §13), bit-identical to the bool path.
//   - Path / PathWeight, Eccentricities / DiameterRadius: path
//     reconstruction and the derived graph metrics reported by the
//     harness.
package apsp
