#include "textflag.h"

// STEP scores one row's feature against the two panel vectors in Y8/Y9:
// broadcast, then a separate multiply and add per accumulator. Never
// VFMADD — the amd64 compiler emits MULSD+ADDSD for linalg.Dot, and a
// fused step rounds once where that rounds twice. The accumulator is
// VADDPD's first source (last-but-one operand here), as in ADDSD.
#define STEP(row, bc, lo, hi) \
	VBROADCASTSD (row)(AX*1), bc; \
	VMULPD       bc, Y8, Y12; \
	VADDPD       Y12, lo, lo; \
	VMULPD       bc, Y9, Y13; \
	VADDPD       Y13, hi, hi

// TRANSPOSE turns four row accumulators (4 probes each) into four probe
// vectors (4 rows each), in place.
#define TRANSPOSE(r0, r1, r2, r3) \
	VUNPCKLPD  r1, r0, Y8; \
	VUNPCKHPD  r1, r0, Y9; \
	VUNPCKLPD  r3, r2, Y10; \
	VUNPCKHPD  r3, r2, Y11; \
	VPERM2F128 $0x20, Y10, Y8, r0; \
	VPERM2F128 $0x20, Y11, Y9, r1; \
	VPERM2F128 $0x31, Y10, Y8, r2; \
	VPERM2F128 $0x31, Y11, Y9, r3

// STORE writes lane l's four scores, or ends the tile once l reaches n.
#define STORE(l, y) \
	CMPQ    DX, $l; \
	JLE     next; \
	MOVQ    (l*8)(R12), R11; \
	VMOVUPD y, (R11)(R13*1)

// func dotsPanelAVX2(rows *float64, tiles, features int, panel *float64, dst *[8]*float64, n, left int)
//
// Scores tiles×4 consecutive rows against the 8-lane probe panel
// (panel[f*8+p]) and writes lane p's scores for rows 4t..4t+3 to
// dst[p][4t:4t+4], for p < n. Eight accumulators per tile: Y(2r) holds
// row r against probes 0-3, Y(2r+1) against probes 4-7; each lane is
// one strict ascending acc = acc + row[f]*probe[f] chain from +0.
// Each tile first prefetches the tile two ahead, one PREFETCHT0 per
// 64-byte line, up to the end of the view: left rows from rows on,
// which may run past the tiles scored here.
TEXT ·dotsPanelAVX2(SB), NOSPLIT, $0-56
	MOVQ  rows+0(FP), SI
	MOVQ  tiles+8(FP), CX
	MOVQ  features+16(FP), BX
	MOVQ  panel+24(FP), DI
	MOVQ  dst+32(FP), R12
	MOVQ  n+40(FP), DX
	SHLQ  $3, BX             // row stride in bytes
	MOVQ  left+48(FP), R14
	IMULQ BX, R14
	ADDQ  SI, R14            // end of the view (ABI0 code may use R14)
	XORQ  R13, R13           // output offset in bytes

tile:
	LEAQ    (SI)(BX*8), R11  // the tile two ahead ...
	LEAQ    (R11)(BX*4), AX  // ... and its end, capped at the view's
	CMPQ    AX, R14
	CMOVQGT R14, AX
	ANDQ    $-64, R11        // from the start of its first line

prefetch:
	CMPQ       R11, AX
	JGE        zero
	PREFETCHT0 (R11)
	ADDQ       $64, R11
	JMP        prefetch

zero:
	LEAQ   (SI)(BX*1), R8
	LEAQ   (R8)(BX*1), R9
	LEAQ   (R9)(BX*1), R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX            // feature offset in bytes

feature:
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y9
	STEP(SI, Y10, Y0, Y1)
	STEP(R8, Y11, Y2, Y3)
	STEP(R9, Y10, Y4, Y5)
	STEP(R10, Y11, Y6, Y7)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  feature

	TRANSPOSE(Y0, Y2, Y4, Y6)
	TRANSPOSE(Y1, Y3, Y5, Y7)
	STORE(0, Y0)
	STORE(1, Y2)
	STORE(2, Y4)
	STORE(3, Y6)
	STORE(4, Y1)
	STORE(5, Y3)
	STORE(6, Y5)
	STORE(7, Y7)

next:
	LEAQ (R10)(BX*1), SI
	ADDQ $32, R13
	DECQ CX
	JNZ  tile
	VZEROUPPER
	RET

// GATHER4 advances rows r0..r3's chains (lanes of acc) by features
// f..f+3 (byte offset CX; probe values broadcast in Y12..Y15). Y0/Y1
// get f,f+1 of rows r0,r2 / r1,r3 (Y2/Y3: f+2,f+3); the unpacks leave
// feature f+j of all four rows in Y4+j. Multiply and add as in STEP.
#define GATHER4(r0, r1, r2, r3, acc) \
	VMOVUPD     (r0)(CX*1), X0; \
	VINSERTF128 $1, (r2)(CX*1), Y0, Y0; \
	VMOVUPD     (r1)(CX*1), X1; \
	VINSERTF128 $1, (r3)(CX*1), Y1, Y1; \
	VMOVUPD     16(r0)(CX*1), X2; \
	VINSERTF128 $1, 16(r2)(CX*1), Y2, Y2; \
	VMOVUPD     16(r1)(CX*1), X3; \
	VINSERTF128 $1, 16(r3)(CX*1), Y3, Y3; \
	VUNPCKLPD   Y1, Y0, Y4; \
	VUNPCKHPD   Y1, Y0, Y5; \
	VUNPCKLPD   Y3, Y2, Y6; \
	VUNPCKHPD   Y3, Y2, Y7; \
	VMULPD      Y12, Y4, Y4; \
	VADDPD      Y4, acc, acc; \
	VMULPD      Y13, Y5, Y5; \
	VADDPD      Y5, acc, acc; \
	VMULPD      Y14, Y6, Y6; \
	VADDPD      Y6, acc, acc; \
	VMULPD      Y15, Y7, Y7; \
	VADDPD      Y7, acc, acc

// func dotsAtAVX2(rows *[8][]float64, features int, zp *float64, out *[8]float64)
//
// out[t] is row t's acc = acc + row[f]*probe[f] chain from +0 over the
// first features &^ 3 features (Y8: rows 0-3, Y9: rows 4-7).
TEXT ·dotsAtAVX2(SB), NOSPLIT, $0-32
	MOVQ   rows+0(FP), AX
	MOVQ   0(AX), R8
	MOVQ   24(AX), R9
	MOVQ   48(AX), R10
	MOVQ   72(AX), R11
	MOVQ   96(AX), R12
	MOVQ   120(AX), R13
	MOVQ   144(AX), SI
	MOVQ   168(AX), DX
	MOVQ   features+8(FP), BX
	MOVQ   zp+16(FP), DI
	ANDQ   $-4, BX
	SHLQ   $3, BX            // end of the 4-feature steps, in bytes
	XORQ   CX, CX            // feature offset in bytes
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9

step:
	CMPQ         CX, BX
	JGE          store
	VBROADCASTSD (DI)(CX*1), Y12
	VBROADCASTSD 8(DI)(CX*1), Y13
	VBROADCASTSD 16(DI)(CX*1), Y14
	VBROADCASTSD 24(DI)(CX*1), Y15
	GATHER4(R8, R9, R10, R11, Y8)
	GATHER4(R12, R13, SI, DX, Y9)
	ADDQ $32, CX
	JMP  step

store:
	MOVQ    out+24(FP), AX
	VMOVUPD Y8, (AX)
	VMOVUPD Y9, 32(AX)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
