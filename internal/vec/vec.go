// Package vec holds the row kernels of the fused GEP ops and the one
// decision of which instruction set runs them. internal/core's MinPlus,
// MulAdd, MulSub, GaussElim and LUFactor kernels run every row through
// this package, and so do linalg's tiled comparators, so the
// cache-oblivious and the cache-aware schedules share one kernel.
//
// There are three kinds of kernel:
//
//   - the single-k row updates MinPlusRow, AddRow and SubRow, which
//     run core's split row loop (the fallback for the blocks no row
//     path takes) and linalg's tiled comparators;
//   - the multi-k row updates MinPlusRowK and SubRowK, which apply
//     several k to one row: core's whole-row paths for the A, B and C
//     blocks of Floyd-Warshall, LU and Gaussian elimination, and every
//     row of MinPlusRows;
//   - the covered-block kernels MinPlusRows, MulAddRows and
//     MulSubRows, which apply every k of a Block to every cell of a
//     disjoint X.
//
// Each is a Go loop for every Real element type. For float64 on amd64,
// and not under -race, an assembly file (kernels_amd64.s) runs the
// first len&^3 columns of every row, and the Go loop finishes the last
// len mod 4. It has two tiers: with AVX-512 it runs columns [0, n&^7)
// eight cells per instruction in ZMM registers and a last group of
// four in YMM; with AVX2 alone it runs all n four cells per
// instruction. Lanes run across j, so each cell still applies its
// updates in ascending k with the Go loop's roundings, and both tiers'
// outputs are bit-identical to the Go loops'. The tier is selected
// once, at init, from what the platform reports (CPUID and XGETBV); no
// option, flag or environment variable moves it. The race build runs
// the Go loops so that the race detector sees every kernel write.
package vec

// Real is the constraint of the kernels: any ordered numeric type the
// update arithmetic (+, *, <) is defined on.
type Real interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// useAVX2 selects the assembly for float64 rows, and useAVX512 its
// eight-lane path, which every assembly routine reads; it is set at
// init where the host has AVX-512 (kernels_amd64.go). They are the
// switches the tests use to run each tier: AVX2 with useAVX512
// cleared, the Go loops with useAVX2 cleared.
var (
	useAVX2   = hasAVX2
	useAVX512 bool
)

// Tier names the instructions that run float64 rows: "AVX-512, 8
// lanes, no FMA", "AVX2, 4 lanes, no FMA" or "Go loops (scalar)".
func Tier() string {
	switch {
	case useAVX2 && useAVX512:
		return "AVX-512, 8 lanes, no FMA"
	case useAVX2:
		return "AVX2, 4 lanes, no FMA"
	}
	return "Go loops (scalar)"
}

// rowF64 returns a single-k row kernel's operands as float64 when the
// row spans at least four cells, T is float64 and the assembly is
// selected. The length is tested first, so short and
// empty rows skip the assertions; those are on pointers, so they
// neither copy nor allocate. The single-k kernels call it under
// "if hasAVX2": in builds without the assembly hasAVX2 is the constant
// false, the compiler drops the branch, and the kernel is small enough
// to inline into core's row loops, as the scalar loops there did.
func rowF64[T Real](x, v []T, u T) (xf, vf []float64, uf float64, ok bool) {
	if len(v) < 4 || !useAVX2 {
		return nil, nil, 0, false
	}
	if p, isF64 := any(&x).(*[]float64); isF64 {
		return *p, *any(&v).(*[]float64), *any(&u).(*float64), true
	}
	return nil, nil, 0, false
}

// MinPlusRow relaxes x by u+v: x[j] = u+v[j] where u+v[j] < x[j], for
// j < len(v). x and v may be the same row: each element is read right
// before its own update.
func MinPlusRow[T Real](x, v []T, u T) {
	x = x[:len(v)]
	j := 0
	if hasAVX2 {
		if xf, vf, uf, ok := rowF64(x, v, u); ok {
			j = len(v) &^ 3
			minPlusRow(&xf[0], &vf[0], uf, j)
		}
	}
	x, v = x[j:], v[j:]
	x = x[:len(v)]
	for j, vj := range v {
		if d := u + vj; d < x[j] {
			x[j] = d
		}
	}
}

// AddRow sets x[j] = x[j] + round(u·v[j]) for j < len(v): the product
// is rounded before the add (see the package comment of internal/core
// on FMA). x and v may be the same row.
func AddRow[T Real](x, v []T, u T) {
	x = x[:len(v)]
	j := 0
	if hasAVX2 {
		if xf, vf, uf, ok := rowF64(x, v, u); ok {
			j = len(v) &^ 3
			addRow(&xf[0], &vf[0], uf, j)
		}
	}
	x, v = x[j:], v[j:]
	x = x[:len(v)]
	for j, vj := range v {
		x[j] += T(u * vj)
	}
}

// SubRow sets x[j] = x[j] − round(u·v[j]) for j < len(v). x and v may
// be the same row.
func SubRow[T Real](x, v []T, u T) {
	x = x[:len(v)]
	j := 0
	if hasAVX2 {
		if xf, vf, uf, ok := rowF64(x, v, u); ok {
			j = len(v) &^ 3
			subRow(&xf[0], &vf[0], uf, j)
		}
	}
	x, v = x[j:], v[j:]
	x = x[:len(v)]
	for j, vj := range v {
		x[j] -= T(u * vj)
	}
}

// rowK returns a multi-k row kernel's operands as float64, and the
// number n = len(x)&^3 of columns the assembly runs, when the row spans
// at least four cells, u holds at least one k, T is float64 and the
// assembly is selected; n is 0 otherwise. Its slicing checks every
// bound the assembly relies on. The assertions are on pointers, so
// they neither copy nor allocate, and nothing it returns escapes: the
// callers pass it straight to the assembly, so a caller's multiplier
// buffer can stay on its stack.
func rowK[T Real](x, u, v []T, vs int) (xf, uf, vf []float64, n int) {
	if len(x) < 4 || len(u) == 0 || !useAVX2 {
		return nil, nil, nil, 0
	}
	p, isF64 := any(&x).(*[]float64)
	if !isF64 {
		return nil, nil, nil, 0
	}
	xf, uf, vf, n = *p, *any(&u).(*[]float64), *any(&v).(*[]float64), len(x)&^3
	_ = vf[(len(uf)-1)*vs:][:n]
	return xf, uf, vf, n
}

// MinPlusRowK relaxes the row x by the rows of V in the (min, +)
// semiring: x[j] = min(x[j], u[k]+v[k*vs+j]) for k = 0, …, len(u)-1 in
// turn and j < len(x). The Go loop runs four k per pass over the row,
// each cell held in a register and stored once per four k.
//
// x must share no cell with u. V's first row may be x itself (v[j] the
// same cell as x[j]), the shape of Floyd-Warshall's self-update: every
// cell reads that row before its first store, so the k = 0 update sees
// x as it was on entry, exactly as a single-k pass would. The assembly
// and the Go loop both load the V cells of a pass before they store
// the cell.
func MinPlusRowK[T Real](x, u, v []T, vs int) {
	if xf, uf, vf, n := rowK(x, u, v, vs); n > 0 {
		minPlusRowK(&xf[0], &uf[0], &vf[0], vs, len(uf), n)
		x, v = x[n:], v[n:]
	}
	if len(x) == 0 {
		return
	}
	k := 0
	for ; k+3 < len(u); k += 4 {
		a0, a1, a2, a3 := u[k], u[k+1], u[k+2], u[k+3]
		b0 := v[k*vs:][:len(x)]
		b1 := v[(k+1)*vs:][:len(x)]
		b2 := v[(k+2)*vs:][:len(x)]
		b3 := v[(k+3)*vs:][:len(x)]
		for j, c := range x {
			if d := a0 + b0[j]; d < c {
				c = d
			}
			if d := a1 + b1[j]; d < c {
				c = d
			}
			if d := a2 + b2[j]; d < c {
				c = d
			}
			if d := a3 + b3[j]; d < c {
				c = d
			}
			x[j] = c
		}
	}
	for ; k < len(u); k++ {
		MinPlusRow(x, v[k*vs:][:len(x)], u[k])
	}
}

// SubRowK sets x[j] = x[j] − round(u[k]·v[k*vs+j]) for k = 0, …,
// len(u)-1 in turn and j < len(x): every product rounded before its
// subtraction, in strict k order per cell. The Go loop runs four k per
// pass over the row. x must share no cell with u or v.
func SubRowK[T Real](x, u, v []T, vs int) {
	if xf, uf, vf, n := rowK(x, u, v, vs); n > 0 {
		mulSubRowK(&xf[0], &uf[0], &vf[0], vs, len(uf), n)
		x, v = x[n:], v[n:]
	}
	if len(x) == 0 {
		return
	}
	k := 0
	for ; k+3 < len(u); k += 4 {
		a0, a1, a2, a3 := u[k], u[k+1], u[k+2], u[k+3]
		b0 := v[k*vs:][:len(x)]
		b1 := v[(k+1)*vs:][:len(x)]
		b2 := v[(k+2)*vs:][:len(x)]
		b3 := v[(k+3)*vs:][:len(x)]
		for j, c := range x {
			c -= T(a0 * b0[j])
			c -= T(a1 * b1[j])
			c -= T(a2 * b2[j])
			c -= T(a3 * b3[j])
			x[j] = c
		}
	}
	for ; k < len(u); k++ {
		SubRow(x, v[k*vs:][:len(x)], u[k])
	}
}

// Block is the operand set of a covered-block kernel: an M×N block X
// updated from U (M×K) and V (K×N), three row-major views. Cell (i, j)
// of X is X[i*XS+j], U[i,k] is U[i*US+k] and V[k,j] is V[k*VS+j]. X
// must share no cell with U or V.
type Block[T Real] struct {
	X, U, V    []T
	XS, US, VS int
	M, K, N    int
}

// from returns the block's columns [j, N).
func (o Block[T]) from(j int) Block[T] {
	o.X, o.V, o.N = o.X[j:], o.V[j:], o.N-j
	return o
}

// asmRows runs kernel over columns [0, N&^3) of every row of o when T
// is float64 and the assembly is selected, and returns the number of
// columns it covered (0 otherwise).
func asmRows[T Real](o *Block[T], kernel func(x, u, v *float64, vs, kn, n int)) int {
	n := 0
	for i := 0; i < o.M; i++ {
		var xf, uf, vf []float64
		if xf, uf, vf, n = rowK(o.X[i*o.XS:][:o.N], o.U[i*o.US:][:o.K], o.V, o.VS); n == 0 {
			return 0
		}
		kernel(&xf[0], &uf[0], &vf[0], o.VS, o.K, n)
	}
	return n
}

// MinPlusRows relaxes X by U and V in the (min, +) semiring:
// x[i,j] = min(x[i,j], u[i,k]+v[k,j]) for k = 0, …, K-1 in turn, one
// MinPlusRowK per row of X.
func MinPlusRows[T Real](o Block[T]) {
	for i := 0; i < o.M; i++ {
		MinPlusRowK(o.X[i*o.XS:][:o.N], o.U[i*o.US:][:o.K], o.V, o.VS)
	}
}

// MulAddRows sets X += U·V with every product rounded before its add,
// in strict k order per cell. The Go loop takes two X rows at a time,
// unrolled 4 ways over k: each cell accumulates
// ((x + a0·b0) + a1·b1) + a2·b2 + a3·b3 with every product and sum
// rounded, exactly the generic path's sequence, while the X rows are
// loaded and stored once per four values of k and each V element
// loaded serves both rows.
func MulAddRows[T Real](o Block[T]) {
	if o = o.from(asmRows(&o, mulAddRowK)); o.N == 0 {
		return
	}
	x, u, v := o.X, o.U, o.V
	i := 0
	for ; i+1 < o.M; i += 2 {
		xr0 := x[i*o.XS:][:o.N]
		xr1 := x[(i+1)*o.XS:][:o.N]
		ur0 := u[i*o.US:][:o.K]
		ur1 := u[(i+1)*o.US:][:o.K]
		k := 0
		for ; k+3 < o.K; k += 4 {
			a00, a01, a02, a03 := ur0[k], ur0[k+1], ur0[k+2], ur0[k+3]
			a10, a11, a12, a13 := ur1[k], ur1[k+1], ur1[k+2], ur1[k+3]
			b0 := v[k*o.VS:][:len(xr0)]
			b1 := v[(k+1)*o.VS:][:len(xr0)]
			b2 := v[(k+2)*o.VS:][:len(xr0)]
			b3 := v[(k+3)*o.VS:][:len(xr0)]
			xr1 := xr1[:len(xr0)]
			for j, c0 := range xr0 {
				c1 := xr1[j]
				b := b0[j]
				c0 += T(a00 * b)
				c1 += T(a10 * b)
				b = b1[j]
				c0 += T(a01 * b)
				c1 += T(a11 * b)
				b = b2[j]
				c0 += T(a02 * b)
				c1 += T(a12 * b)
				b = b3[j]
				c0 += T(a03 * b)
				c1 += T(a13 * b)
				xr0[j], xr1[j] = c0, c1
			}
		}
		for ; k < o.K; k++ {
			b := v[k*o.VS:][:o.N]
			AddRow(xr0, b, ur0[k])
			AddRow(xr1, b, ur1[k])
		}
	}
	if i < o.M { // odd row count: the last row alone
		xr := x[i*o.XS:][:o.N]
		for k, a := range u[i*o.US:][:o.K] {
			AddRow(xr, v[k*o.VS:][:o.N], a)
		}
	}
}

// MulSubRows is MulAddRows with subtracting accumulation: X −= U·V, in
// strict k order per cell.
func MulSubRows[T Real](o Block[T]) {
	if o = o.from(asmRows(&o, mulSubRowK)); o.N == 0 {
		return
	}
	x, u, v := o.X, o.U, o.V
	i := 0
	for ; i+1 < o.M; i += 2 {
		xr0 := x[i*o.XS:][:o.N]
		xr1 := x[(i+1)*o.XS:][:o.N]
		ur0 := u[i*o.US:][:o.K]
		ur1 := u[(i+1)*o.US:][:o.K]
		k := 0
		for ; k+3 < o.K; k += 4 {
			a00, a01, a02, a03 := ur0[k], ur0[k+1], ur0[k+2], ur0[k+3]
			a10, a11, a12, a13 := ur1[k], ur1[k+1], ur1[k+2], ur1[k+3]
			b0 := v[k*o.VS:][:len(xr0)]
			b1 := v[(k+1)*o.VS:][:len(xr0)]
			b2 := v[(k+2)*o.VS:][:len(xr0)]
			b3 := v[(k+3)*o.VS:][:len(xr0)]
			xr1 := xr1[:len(xr0)]
			for j, c0 := range xr0 {
				c1 := xr1[j]
				b := b0[j]
				c0 -= T(a00 * b)
				c1 -= T(a10 * b)
				b = b1[j]
				c0 -= T(a01 * b)
				c1 -= T(a11 * b)
				b = b2[j]
				c0 -= T(a02 * b)
				c1 -= T(a12 * b)
				b = b3[j]
				c0 -= T(a03 * b)
				c1 -= T(a13 * b)
				xr0[j], xr1[j] = c0, c1
			}
		}
		for ; k < o.K; k++ {
			b := v[k*o.VS:][:o.N]
			SubRow(xr0, b, ur0[k])
			SubRow(xr1, b, ur1[k])
		}
	}
	if i < o.M { // odd row count: the last row alone
		xr := x[i*o.XS:][:o.N]
		for k, a := range u[i*o.US:][:o.K] {
			SubRow(xr, v[k*o.VS:][:o.N], a)
		}
	}
}

// MulAddChains runs independent multiply-then-add chains a = a·m + c
// for iters steps, as wide as the float64 kernels run, and returns the
// flops it executed and a sum of the chains (which callers keep, so
// the work is not dead). It is the calibration kernel of
// bench.PeakGFLOPS: the fastest multiply-add rate the selected tier
// reaches with every operand in a register. The AVX-512 tier runs 24
// 8-lane chains and the AVX2 tier twelve 4-lane chains, VMULPD then
// VADDPD; the Go loop runs eight scalar chains.
func MulAddChains(iters int) (flops, sum float64) {
	const m, c = 0.999999, 1e-9
	if useAVX2 {
		chains, lanes := 12, 4
		if useAVX512 {
			chains, lanes = 24, 8
		}
		return float64(iters) * float64(chains*lanes) * 2, mulAddChains(iters, m, c)
	}
	a0, a1, a2, a3 := 1.0, 1.1, 1.2, 1.3
	a4, a5, a6, a7 := 1.4, 1.5, 1.6, 1.7
	for i := 0; i < iters; i++ {
		a0 = a0*m + c
		a1 = a1*m + c
		a2 = a2*m + c
		a3 = a3*m + c
		a4 = a4*m + c
		a5 = a5*m + c
		a6 = a6*m + c
		a7 = a7*m + c
	}
	return float64(iters) * 8 * 2, a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}
