// Package matrix provides the dense-matrix substrate used by the GEP
// (Gaussian Elimination Paradigm) framework: row-major storage with
// strided submatrix views, bit-interleaved (Morton) tiled layouts, and
// power-of-two padding.
//
// The GEP algorithms (see internal/core) access matrices through the
// small Grid interface so that the same algorithm code can run over
// in-core matrices, cache-simulator tracers, and out-of-core stores.
//
// Key types and entry points:
//
//   - Grid / Rect: the minimal square and rectangular element
//     accessors the engines require. Implementations include
//     *Dense[T] (in-core), cachesim tracing wrappers, and ooc
//     file-backed matrices.
//   - Dense[T]: row-major storage, possibly a strided view into a
//     parent (Sub); New, NewSquare, Clone, Apply are the workhorses.
//   - Flat / FlatRect: the fast-path type assertions — when a Grid is
//     backed by one contiguous row-major slice, the engines' base-case
//     kernels (internal/core/fastpath.go) run directly over it,
//     skipping interface dispatch; wrapper grids simply fail the
//     assertion and keep the generic path.
//   - Tiled[T] (morton.go): the paper's bit-interleaved tiled layout
//     (§4.2), with FromDense/ToDense conversion.
//   - Bits (bits.go): bit-packed boolean matrices, 64 cells per
//     uint64 word, with mid-word Sub views, masked row spans
//     (RowSpan/Bits64), and PackBool/UnpackBool conversion. Bits is
//     itself a Grid[bool]/Rect[bool], so every engine runs on it
//     generically; the word-parallel kernels in internal/core are a
//     fast path on top (DESIGN.md §13).
//   - PadPow2 / Crop / OnPow2 (pad.go): the power-of-two padding the
//     recursive algorithms require (the paper assumes n = 2^q); OnPow2
//     pads, runs and copies the leading block back in one call, and
//     PadBitsPow2 is the packed counterpart of PadPow2.
package matrix
