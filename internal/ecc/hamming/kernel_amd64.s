//go:build amd64

#include "textflag.h"

// bytePairs gathers byte i of both codewords in a 128-bit lane next to
// each other: lane bytes c0b0 c1b0 c0b1 c1b1 ... c0b7 c1b7.
DATA bytePairs<>+0(SB)/8, $0x0B030A0209010800
DATA bytePairs<>+8(SB)/8, $0x0F070E060D050C04
GLOBL bytePairs<>(SB), RODATA|NOPTR, $16

// lanesToBlocks puts the sixteen check bytes back in codeword order:
// after the transpose a lane holds codewords 0 1 4 5 8 9 12 13 2 3 6 7
// 10 11 14 15.
DATA lanesToBlocks<>+0(SB)/8, $0x0B0A030209080100
DATA lanesToBlocks<>+8(SB)/8, $0x0F0E07060D0C0504
GLOBL lanesToBlocks<>(SB), RODATA|NOPTR, $16

DATA nibMask<>+0(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA nibMask<>+8(SB)/8, $0x0F0F0F0F0F0F0F0F
GLOBL nibMask<>(SB), RODATA|NOPTR, $16

// func checkBytesAVX2(tab *[4][64]byte, src, dst, chk []byte)
//
// Sixteen K=64 codewords (128 bytes) per iteration: the bytes are
// stored to dst unchanged, transposed so that each 128-bit lane holds
// one byte position of all sixteen, and looked up in that position's
// nibble tables; the XOR of the eight lookups is each codeword's
// extended check byte.
TEXT ·checkBytesAVX2(SB), NOSPLIT, $0-80
	MOVQ tab+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	MOVQ chk_base+56(FP), DX
	SHRQ $7, CX
	JZ   done

	VMOVDQU        (AX), Y4     // low-nibble tables, positions 0 | 1
	VMOVDQU        32(AX), Y5   // high-nibble tables, positions 0 | 1
	VMOVDQU        64(AX), Y6   // positions 2 | 3
	VMOVDQU        96(AX), Y7
	VMOVDQU        128(AX), Y8  // positions 4 | 5
	VMOVDQU        160(AX), Y9
	VMOVDQU        192(AX), Y10 // positions 6 | 7
	VMOVDQU        224(AX), Y11
	VBROADCASTI128 nibMask<>(SB), Y12
	VBROADCASTI128 bytePairs<>(SB), Y13

loop:
	VMOVDQU (SI), Y0            // codewords 0-1 | 2-3
	VMOVDQU 32(SI), Y1          // 4-5 | 6-7
	VMOVDQU 64(SI), Y2          // 8-9 | 10-11
	VMOVDQU 96(SI), Y3          // 12-13 | 14-15
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)

	// Transpose: 16-bit words of byte pairs, then dwords of four, then
	// qwords of eight codewords, then the two halves of each position
	// into one lane.
	VPSHUFB    Y13, Y0, Y0
	VPSHUFB    Y13, Y1, Y1
	VPSHUFB    Y13, Y2, Y2
	VPSHUFB    Y13, Y3, Y3
	VPUNPCKLWD Y1, Y0, Y14      // positions 0-3 of 0 1 4 5 | 2 3 6 7
	VPUNPCKHWD Y1, Y0, Y15      // positions 4-7
	VPUNPCKLWD Y3, Y2, Y0       // positions 0-3 of 8 9 12 13 | 10 11 14 15
	VPUNPCKHWD Y3, Y2, Y1       // positions 4-7
	VPUNPCKLDQ Y0, Y14, Y2      // positions 0-1, eight codewords a qword
	VPUNPCKHDQ Y0, Y14, Y3      // positions 2-3
	VPUNPCKLDQ Y1, Y15, Y0      // positions 4-5
	VPUNPCKHDQ Y1, Y15, Y1      // positions 6-7
	VPERMQ     $0xD8, Y2, Y2    // lanes: position 0 | position 1
	VPERMQ     $0xD8, Y3, Y3    // 2 | 3
	VPERMQ     $0xD8, Y0, Y0    // 4 | 5
	VPERMQ     $0xD8, Y1, Y1    // 6 | 7

	// Two nibble lookups per position, all XORed into Y2.
	VPSRLW  $4, Y2, Y14
	VPAND   Y12, Y2, Y2
	VPAND   Y12, Y14, Y14
	VPSHUFB Y2, Y4, Y2
	VPSHUFB Y14, Y5, Y14
	VPXOR   Y14, Y2, Y2

	VPSRLW  $4, Y3, Y15
	VPAND   Y12, Y3, Y3
	VPAND   Y12, Y15, Y15
	VPSHUFB Y3, Y6, Y3
	VPSHUFB Y15, Y7, Y15
	VPXOR   Y15, Y3, Y3
	VPXOR   Y3, Y2, Y2

	VPSRLW  $4, Y0, Y14
	VPAND   Y12, Y0, Y0
	VPAND   Y12, Y14, Y14
	VPSHUFB Y0, Y8, Y0
	VPSHUFB Y14, Y9, Y14
	VPXOR   Y14, Y0, Y0
	VPXOR   Y0, Y2, Y2

	VPSRLW  $4, Y1, Y15
	VPAND   Y12, Y1, Y1
	VPAND   Y12, Y15, Y15
	VPSHUFB Y1, Y10, Y1
	VPSHUFB Y15, Y11, Y15
	VPXOR   Y15, Y1, Y1
	VPXOR   Y1, Y2, Y2

	// Fold the two lanes (even and odd positions) and restore the
	// codeword order.
	VEXTRACTI128 $1, Y2, X3
	VPXOR        X3, X2, X2
	VPSHUFB      lanesToBlocks<>(SB), X2, X2
	VMOVDQU      X2, (DX)

	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $16, DX
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET
