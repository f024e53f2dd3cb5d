//go:build amd64

#include "textflag.h"

// nibParity maps a nibble to its parity.
DATA nibParity<>+0(SB)/8, $0x0100000100010100
DATA nibParity<>+8(SB)/8, $0x0001010001000001
GLOBL nibParity<>(SB), RODATA|NOPTR, $16

DATA nibMask<>+0(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA nibMask<>+8(SB)/8, $0x0F0F0F0F0F0F0F0F
GLOBL nibMask<>(SB), RODATA|NOPTR, $16

// rev4 reverses the order of a nibble's four bits.
DATA rev4<>+0(SB)/8, $0x0E060A020C040800
DATA rev4<>+8(SB)/8, $0x0F070B030D050901
GLOBL rev4<>(SB), RODATA|NOPTR, $16

// func parityBytesAVX2(src, dst, par []byte)
//
// Eight 8-byte blocks (64 bytes) per iteration, stored to dst
// unchanged, into one parity byte: the parity of every byte from two
// nibble lookups, summed per block (VPSADBW), the low bit of each sum
// moved to its qword's sign bit, and the four sign bits of each
// register gathered and reversed so that block 0 is the highest.
TEXT ·parityBytesAVX2(SB), NOSPLIT, $0-72
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	MOVQ par_base+48(FP), DX
	SHRQ $6, CX
	JZ   done

	VBROADCASTI128 nibParity<>(SB), Y4
	VBROADCASTI128 nibMask<>(SB), Y5
	VPXOR          Y6, Y6, Y6
	LEAQ           rev4<>(SB), R8

loop:
	VMOVDQU   (SI), Y0       // blocks 0-3
	VMOVDQU   32(SI), Y1     // blocks 4-7
	VMOVDQU   Y0, (DI)
	VMOVDQU   Y1, 32(DI)
	VPSRLW    $4, Y0, Y2
	VPSRLW    $4, Y1, Y3
	VPAND     Y5, Y0, Y0
	VPAND     Y5, Y2, Y2
	VPAND     Y5, Y1, Y1
	VPAND     Y5, Y3, Y3
	VPSHUFB   Y0, Y4, Y0
	VPSHUFB   Y2, Y4, Y2
	VPSHUFB   Y1, Y4, Y1
	VPSHUFB   Y3, Y4, Y3
	VPXOR     Y2, Y0, Y0     // parity of each byte
	VPXOR     Y3, Y1, Y1
	VPSADBW   Y6, Y0, Y0     // odd bytes per block
	VPSADBW   Y6, Y1, Y1
	VPSLLQ    $63, Y0, Y0
	VPSLLQ    $63, Y1, Y1
	VMOVMSKPD Y0, AX         // blocks 0-3, block 0 lowest
	VMOVMSKPD Y1, BX
	MOVBLZX   (R8)(AX*1), AX
	MOVBLZX   (R8)(BX*1), BX
	SHLL      $4, AX
	ORL       BX, AX
	MOVB      AX, (DX)
	ADDQ      $64, SI
	ADDQ      $64, DI
	INCQ      DX
	DECQ      CX
	JNZ       loop

done:
	VZEROUPPER
	RET
