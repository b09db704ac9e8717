//go:build amd64 && !amd64.v3

package linalg

// The AVX twins of the portable column kernels (kernels_amd64.s), taken
// into use at init when the CPU and the operating system both support the
// 256-bit registers.
//
// Not built at GOAMD64=v3 and above: there the compiler fuses x*y+z in
// every Go loop of the module — the vector solve and Dot these kernels must
// equal included — while the assembly never fuses, so the twins would
// differ in the last bit. A v3 build runs the (fused) Go loops everywhere
// and stays consistent with itself, as every other architecture does.

var avxKernels = columnKernels{
	subMul8: subMul8AVX,
	subMul:  subMulAVX,
	div:     divAVX,
	sqDists: sqDistsAVX,
	addMul:  addMulAVX,
	addSq:   addSqAVX,
}

func init() {
	if hasAVX() {
		kern = &avxKernels
	}
}

// hasAVX reports whether AVX instructions may be executed: CPUID leaf 1
// advertises AVX and OSXSAVE (ECX bits 28 and 27), and XCR0 says the
// operating system saves the SSE and AVX register state (bits 1 and 2).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func subMul8AVX(y []float64, l *[8]float64, rows []float64, stride int)

//go:noescape
func subMulAVX(y, x []float64, l float64)

//go:noescape
func divAVX(y []float64, pivot float64)

//go:noescape
func sqDistsAVX(dst, pt, x []float64)

//go:noescape
func addMulAVX(acc, v []float64, a float64)

//go:noescape
func addSqAVX(acc, v []float64)
