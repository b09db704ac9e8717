//go:build amd64 && !amd64.v3

package linalg

// The AVX twins of the portable column kernels (kernels_amd64.s and, for
// the Matérn transform, matern_amd64.s), taken into use at init when the
// CPU and the operating system both support the 256-bit registers.
//
// Not built at GOAMD64=v3 and above: there the compiler fuses x*y+z in
// every Go loop of the module — the vector solve and Dot these kernels must
// equal included — while the assembly never fuses, so the twins would
// differ in the last bit. A v3 build runs the (fused) Go loops everywhere
// and stays consistent with itself, as every other architecture does.

var avxKernels = columnKernels{
	sqDists:  sqDistsAVX,
	dots:     dotsAVX,
	solveRow: solveRowAVX,
	matern52: matern52AVX,
}

func init() {
	avx, fma := cpuFeatures()
	if !avx {
		return
	}
	if !fma || !matern52AgreesWithExp() {
		// math.Exp runs its unfused branch here; so must the transform.
		avxKernels.matern52 = matern52Go
	}
	kern = &avxKernels
}

// cpuFeatures reports whether AVX, and FMA with it, may be executed: CPUID
// leaf 1 advertises AVX and OSXSAVE (ECX bits 28 and 27), and XCR0 says the
// operating system saves the SSE and AVX register state (bits 1 and 2);
// FMA is ECX bit 12 on top of that — math's useFMA condition.
func cpuFeatures() (avx, fma bool) {
	const fmaBit, osxsave, avxBit = 1 << 12, 1 << 27, 1 << 28
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false, false
	}
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avxBit) != osxsave|avxBit {
		return false, false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false, false
	}
	return true, ecx&fmaBit != 0
}

// maternProbe is one block of squared distances whose transform, at unit
// length scale and variance, rounds differently under math.Exp's fused and
// unfused branches in three of the four lanes.
var maternProbe = [4]float64{0.037, 0.407, 0.444, 0.481}

// matern52AgreesWithExp runs the assembly on maternProbe against the Go
// loop: math picks its branch from the CPU unless GODEBUG=cpu.fma=off (or
// cpu.avx=off) turns the fused one off, and the transform follows math.
func matern52AgreesWithExp() bool {
	got, want := maternProbe, maternProbe
	matern52AVX(got[:], 1, 1)
	matern52Go(want[:], 1, 1)
	return got == want // positive and finite: == is bit equality
}

// matern52AVX runs the assembly over whole blocks of four columns; the Go
// loop finishes the row from the first block the assembly left untouched —
// the tail, or a block holding a lane outside its range.
func matern52AVX(row []float64, ls, vr float64) {
	done := matern52Blocks(row, ls, vr)
	matern52Go(row[done:], ls, vr)
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func sqDistsAVX(dst, pt, x []float64)

//go:noescape
func dotsAVX(dst, pt, x []float64)

//go:noescape
func solveRowAVX(dst, b, pt, x []float64, pivot float64)

// matern52Blocks transforms row four columns at a time and returns how many
// columns it transformed: a multiple of four, short of len(row) when the
// row ends in a partial block or a block holds an exponent argument
// −√5r outside [−700, 0] (NaN included).
//
//go:noescape
func matern52Blocks(row []float64, ls, vr float64) int
