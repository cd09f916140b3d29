//go:build amd64 && !race

package vec

// hasAVX2 reports that the CPU has AVX2 and the OS saves the YMM
// state across context switches: CPUID leaf 1 OSXSAVE and AVX, XCR0
// bits 1 and 2 (XMM and YMM state), and CPUID leaf 7 AVX2.
var hasAVX2 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}()

// hasAVX512 reports that, beyond AVX2, the CPU has AVX512F (CPUID leaf
// 7 EBX bit 16) and the OS saves the opmask and ZMM state as well: XCR0
// bits 1, 2, 5, 6 and 7 (XMM, YMM, opmask, the upper halves of ZMM0-15,
// and ZMM16-31).
var hasAVX512 = hasAVX2 && func() bool {
	const state = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&state != state {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}()

func init() { useAVX512 = hasAVX512 }

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The assembly kernels of kernels_amd64.s.

//go:noescape
func minPlusRow(x, v *float64, u float64, n int)

//go:noescape
func addRow(x, v *float64, u float64, n int)

//go:noescape
func subRow(x, v *float64, u float64, n int)

//go:noescape
func minPlusRowK(x, u, v *float64, vs, kn, n int)

//go:noescape
func mulAddRowK(x, u, v *float64, vs, kn, n int)

//go:noescape
func mulSubRowK(x, u, v *float64, vs, kn, n int)

func mulAddChains(iters int, m, c float64) float64
