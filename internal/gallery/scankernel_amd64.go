package gallery

// useAVX2 selects the assembly kernels (the panel for batches it pays
// on, every DotsAt gather). Decided once from what the CPU and OS
// report; tests flip it to run every equivalence matrix through both.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state across context switches (OSXSAVE, and XCR0 enabling both the
// SSE and AVX halves).
func detectAVX2() bool {
	const osxsave, avx, avx2, xmmYMM = 1 << 27, 1 << 28, 1 << 5, 0b110
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if eax, _ := xgetbv(); eax&xmmYMM != xmmYMM {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func dotsPanelAVX2(rows *float64, tiles, features int, panel *float64, dst *[panelLanes]*float64, n, left int)

//go:noescape
func dotsAtAVX2(rows *[gatherLanes][]float64, features int, zp *float64, out *[gatherLanes]float64)
