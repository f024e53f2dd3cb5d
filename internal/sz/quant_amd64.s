//go:build amd64

#include "textflag.h"

// The Lorenzo quantizer on eight skewed rows: lane r of the pair of
// vectors (lanes 0-3 in A, 4-7 in B) holds row y+r, one column behind
// lane r-1, so at step k lane r quantizes column k-r. Its left is its
// own result from step k-1, its up and up-left are lane r-1's results
// from steps k-1 and k-2, and lane 0 reads them from the row above the
// group. Every lane runs the scalar kernel's arithmetic in the same
// order (quant_fast.go), with no fused multiply-add, so the symbols and
// reconstructions are the same bits. Only the steady state runs here:
// the Go caller quantizes the columns before the first step at which
// all eight lanes have one and after the last, and hands in the state
// at the first.
//
// Registers: SI data, DI recon, BX syms (lane 0 at step k), R8 the row
// above lane 0, CX steps left. With T = (width-1)*4, lane r of a
// float64 row sits r*2T bytes after lane 0 and lane r of the symbols
// r*T: R11 = T, R12 = 3T, R13 = 5T and DX = 7T reach all eight with
// scales 1, 2, 4 and 8. The fix-up path counts the lanes it gives
// symbol 0 (R9 in 2-D, R14 in 3-D), and the kernels return the count.

// absMask clears the sign bit; codeLim is quantRadius-1; negRadius is
// -quantRadius, the code whose symbol is 0; radius is quantRadius in
// each dword.
DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
DATA absMask<>+8(SB)/8, $0x7fffffffffffffff
DATA absMask<>+16(SB)/8, $0x7fffffffffffffff
DATA absMask<>+24(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $32

DATA codeLim<>+0(SB)/8, $32767.0
DATA codeLim<>+8(SB)/8, $32767.0
DATA codeLim<>+16(SB)/8, $32767.0
DATA codeLim<>+24(SB)/8, $32767.0
GLOBL codeLim<>(SB), RODATA|NOPTR, $32

DATA negRadius<>+0(SB)/8, $-32768.0
DATA negRadius<>+8(SB)/8, $-32768.0
DATA negRadius<>+16(SB)/8, $-32768.0
DATA negRadius<>+24(SB)/8, $-32768.0
GLOBL negRadius<>(SB), RODATA|NOPTR, $32

DATA radius<>+0(SB)/8, $0x0000800000008000
DATA radius<>+8(SB)/8, $0x0000800000008000
GLOBL radius<>(SB), RODATA|NOPTR, $16

// LOADA and LOADB gather lanes 0-3 and 4-7 of the float64 rows at B
// into Y (X its low half); TX is clobbered.
#define LOADA(B, Y, X, TX) \
	VMOVSD      (B), X; \
	VMOVHPD     (B)(R11*2), X, X; \
	VMOVSD      (B)(R11*4), TX; \
	VMOVHPD     (B)(R12*2), TX, TX; \
	VINSERTF128 $1, TX, Y, Y

#define LOADB(B, Y, X, TX) \
	VMOVSD      (B)(R11*8), X; \
	VMOVHPD     (B)(R13*2), X, X; \
	VMOVSD      (B)(R12*4), TX; \
	VMOVHPD     (B)(DX*2), TX, TX; \
	VINSERTF128 $1, TX, Y, Y

// STOREA and STOREB scatter Y's lanes to the float64 rows at DI.
#define STOREA(Y, X, TX) \
	VMOVSD       X, (DI); \
	VMOVHPD      X, (DI)(R11*2); \
	VEXTRACTF128 $1, Y, TX; \
	VMOVSD       TX, (DI)(R11*4); \
	VMOVHPD      TX, (DI)(R12*2)

#define STOREB(Y, X, TX) \
	VMOVSD       X, (DI)(R11*8); \
	VMOVHPD      X, (DI)(R13*2); \
	VEXTRACTF128 $1, Y, TX; \
	VMOVSD       TX, (DI)(R12*4); \
	VMOVHPD      TX, (DI)(DX*2)

// SYMSA and SYMSB store code+quantRadius for C's lanes to the symbols
// at BX.
#define SYMSA(C, TX) \
	VCVTPD2DQY C, TX; \
	VPADDD     radius<>(SB), TX, TX; \
	VMOVD      TX, (BX); \
	VPEXTRD    $1, TX, (BX)(R11*1); \
	VPEXTRD    $2, TX, (BX)(R11*2); \
	VPEXTRD    $3, TX, (BX)(R12*1)

#define SYMSB(C, TX) \
	VCVTPD2DQY C, TX; \
	VPADDD     radius<>(SB), TX, TX; \
	VMOVD      TX, (BX)(R11*4); \
	VPEXTRD    $1, TX, (BX)(R13*1); \
	VPEXTRD    $2, TX, (BX)(R12*2); \
	VPEXTRD    $3, TX, (BX)(DX*1)

// QUANT is quantOne's arithmetic: C = RoundToEven((V-P)*INV), then
// R = P + C*TWO as a product and a sum.
#define QUANT(P, V, C, R, INV, TWO) \
	VSUBPD   P, V, C; \
	VMULPD   INV, C, C; \
	VROUNDPD $0, C, C; \
	VMULPD   TWO, C, R; \
	VADDPD   R, P, R

// FAIL sets F's lanes where quantOne's guards fail: |C| < codeLim and
// |R-V| <= EB are both ordered compares, so a NaN fails them as in Go.
#define FAIL(C, R, V, F, T, EB) \
	VANDPD absMask<>(SB), C, F; \
	VCMPPD $5, codeLim<>(SB), F, F; \
	VSUBPD V, R, T; \
	VANDPD absMask<>(SB), T, T; \
	VCMPPD $6, EB, T, T; \
	VORPD  T, F, F

// FIX gives a failed lane the value itself and symbol 0 (code
// -quantRadius).
#define FIX(F, V, C, R) \
	VBLENDVPD F, V, R, R; \
	VBLENDVPD F, negRadius<>(SB), C, C

// COUNT adds the number of F's failed lanes to N; AX is clobbered.
#define COUNT(F, N) \
	VMOVMSKPD F, AX; \
	POPCNTL   AX, AX; \
	ADDQ      AX, N

// STRIDES sets R11, R12, R13 and DX from the row width in AX.
#define STRIDES \
	DECQ AX; \
	SHLQ $2, AX; \
	MOVQ AX, R11; \
	LEAQ (AX)(AX*2), R12; \
	LEAQ (AX)(AX*4), R13; \
	LEAQ (R12)(AX*4), DX

// func lorenzo2DAVX2(src, recon *float64, syms *int32, above *float64, st *[32]float64, width, steps int, eb, invTwoEB, twoEB float64) int
//
// st holds left (st[0:8]) and up-left (st[8:16]) of lanes 0-7 at the
// first step; above is the row above lane 0 at that step's column.
// p = (left + up) - upleft.
TEXT ·lorenzo2DAVX2(SB), NOSPLIT, $0-88
	MOVQ src+0(FP), SI
	MOVQ recon+8(FP), DI
	MOVQ syms+16(FP), BX
	MOVQ above+24(FP), R8
	MOVQ st+32(FP), AX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	MOVQ width+40(FP), AX
	STRIDES
	MOVQ steps+48(FP), CX
	VBROADCASTSD eb+56(FP), Y6
	VBROADCASTSD invTwoEB+64(FP), Y4
	VBROADCASTSD twoEB+72(FP), Y5
	XORQ         R9, R9

	// Y0/Y1 left (the last results), Y2/Y3 up-left (the last ups).
	PCALIGN $32

loop2:
	VPERMPD      $0x90, Y0, Y8
	VBROADCASTSD (R8), Y9
	VBLENDPD     $1, Y9, Y8, Y8
	VPERMPD      $0x90, Y1, Y9
	VPERMPD      $0xff, Y0, Y10
	VBLENDPD     $1, Y10, Y9, Y9
	VADDPD       Y8, Y0, Y10
	VSUBPD       Y2, Y10, Y10
	VADDPD       Y9, Y1, Y11
	VSUBPD       Y3, Y11, Y11
	VMOVAPD      Y8, Y2
	VMOVAPD      Y9, Y3
	LOADA(SI, Y12, X12, X8)
	LOADB(SI, Y13, X13, X9)
	QUANT(Y10, Y12, Y14, Y0, Y4, Y5)
	QUANT(Y11, Y13, Y15, Y1, Y4, Y5)
	FAIL(Y14, Y0, Y12, Y8, Y10, Y6)
	FAIL(Y15, Y1, Y13, Y9, Y11, Y6)
	VORPD        Y8, Y9, Y10
	VTESTPD      Y10, Y10
	JNE          fix2

store2:
	STOREA(Y0, X0, X10)
	STOREB(Y1, X1, X10)
	SYMSA(Y14, X10)
	SYMSB(Y15, X11)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $4, BX
	ADDQ $8, R8
	DECQ CX
	JNZ  loop2
	MOVQ R9, ret+80(FP)
	VZEROUPPER
	RET

fix2:
	COUNT(Y8, R9)
	COUNT(Y9, R9)
	FIX(Y8, Y12, Y14, Y0)
	FIX(Y9, Y13, Y15, Y1)
	JMP store2

// func lorenzo3DAVX2(src, recon *float64, syms *int32, above, back, backAbove *float64, st *[32]float64, width, steps int, eb, invTwoEB, twoEB float64) int
//
// st holds left, up-left, back-left and back-up-left of lanes 0-7 at
// the first step, eight each; back is lane 0's row in the previous
// plane (R10, its lanes at the same strides) and backAbove the row
// above it (R9). p = left + up + back - upleft - backleft - backup +
// backupleft, added left to right.
TEXT ·lorenzo3DAVX2(SB), NOSPLIT, $96-104
	MOVQ src+0(FP), SI
	MOVQ recon+8(FP), DI
	MOVQ syms+16(FP), BX
	MOVQ above+24(FP), R8
	MOVQ back+32(FP), R10
	MOVQ backAbove+40(FP), R9
	MOVQ st+48(FP), AX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7
	MOVQ width+56(FP), AX
	STRIDES
	MOVQ steps+64(FP), CX
	VBROADCASTSD eb+72(FP), Y8
	VMOVUPD      Y8, ebv-32(SP)
	VBROADCASTSD invTwoEB+80(FP), Y8
	VMOVUPD      Y8, invv-64(SP)
	VBROADCASTSD twoEB+88(FP), Y8
	VMOVUPD      Y8, twov-96(SP)
	XORQ         R14, R14

	// Y0/Y1 left, Y2/Y3 up-left, Y4/Y5 back-left (the last backs),
	// Y6/Y7 back-up-left (the last back-ups).
	PCALIGN $32

loop3:
	VPERMPD      $0xff, Y0, Y8
	VPERMPD      $0xff, Y4, Y9
	VPERMPD      $0x90, Y0, Y10
	VBROADCASTSD (R8), Y11
	VBLENDPD     $1, Y11, Y10, Y10
	VPERMPD      $0x90, Y4, Y11
	VBROADCASTSD (R9), Y12
	VBLENDPD     $1, Y12, Y11, Y11
	LOADA(R10, Y12, X12, X13)
	VADDPD       Y10, Y0, Y13
	VADDPD       Y12, Y13, Y13
	VSUBPD       Y2, Y13, Y13
	VSUBPD       Y4, Y13, Y13
	VSUBPD       Y11, Y13, Y13
	VADDPD       Y6, Y13, Y13
	VMOVAPD      Y10, Y2
	VMOVAPD      Y12, Y4
	VMOVAPD      Y11, Y6
	VPERMPD      $0x90, Y1, Y10
	VBLENDPD     $1, Y8, Y10, Y10
	VPERMPD      $0x90, Y5, Y11
	VBLENDPD     $1, Y9, Y11, Y11
	LOADB(R10, Y12, X12, X8)
	VADDPD       Y10, Y1, Y14
	VADDPD       Y12, Y14, Y14
	VSUBPD       Y3, Y14, Y14
	VSUBPD       Y5, Y14, Y14
	VSUBPD       Y11, Y14, Y14
	VADDPD       Y7, Y14, Y14
	VMOVAPD      Y10, Y3
	VMOVAPD      Y12, Y5
	VMOVAPD      Y11, Y7
	LOADA(SI, Y8, X8, X10)
	LOADB(SI, Y9, X9, X10)
	QUANT(Y13, Y8, Y10, Y0, invv-64(SP), twov-96(SP))
	QUANT(Y14, Y9, Y11, Y1, invv-64(SP), twov-96(SP))
	FAIL(Y10, Y0, Y8, Y12, Y13, ebv-32(SP))
	FAIL(Y11, Y1, Y9, Y15, Y14, ebv-32(SP))
	VORPD        Y12, Y15, Y13
	VTESTPD      Y13, Y13
	JNE          fix3

store3:
	STOREA(Y0, X0, X13)
	STOREB(Y1, X1, X13)
	SYMSA(Y10, X13)
	SYMSB(Y11, X14)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $4, BX
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	DECQ CX
	JNZ  loop3
	MOVQ R14, ret+96(FP)
	VZEROUPPER
	RET

fix3:
	COUNT(Y12, R14)
	COUNT(Y15, R14)
	FIX(Y12, Y8, Y10, Y0)
	FIX(Y15, Y9, Y11, Y1)
	JMP store3
