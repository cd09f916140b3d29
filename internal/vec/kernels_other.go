//go:build !amd64 || race

package vec

// hasAVX2 is false: the assembly is built only for amd64, and not
// under -race, whose instrumentation cannot see assembly writes.
const hasAVX2 = false

// Stubs of the assembly kernels; useAVX2 is never set, so nothing
// calls them.

func minPlusRow(x, v *float64, u float64, n int)   { panic(noAsm) }
func addRow(x, v *float64, u float64, n int)       { panic(noAsm) }
func subRow(x, v *float64, u float64, n int)       { panic(noAsm) }
func minPlusRowK(x, u, v *float64, vs, kn, n int)  { panic(noAsm) }
func mulAddRowK(x, u, v *float64, vs, kn, n int)   { panic(noAsm) }
func mulSubRowK(x, u, v *float64, vs, kn, n int)   { panic(noAsm) }
func mulAddChains(iters int, m, c float64) float64 { panic(noAsm) }

const noAsm = "vec: no AVX2 kernels in this build"
