//go:build amd64

#include "textflag.h"

// gather<>+32r is the VPSHUFB mask for the register holding
// coefficients 4r..4r+3 of a run of sixteen: byte 0 of each qword
// (after the shift by base) goes to the byte of its coefficient, the
// low lane's two to bytes 4r and 4r+1 and the high lane's two to bytes
// 4r+2 and 4r+3 of the high lane; every other byte is zeroed. ORing the
// four registers and then their two lanes lines the sixteen up in
// coefficient order.
DATA gather<>+0(SB)/8, $0x8080808080800800
DATA gather<>+8(SB)/8, $0x8080808080808080
DATA gather<>+16(SB)/8, $0x8080808008008080
DATA gather<>+24(SB)/8, $0x8080808080808080
DATA gather<>+32(SB)/8, $0x8080080080808080
DATA gather<>+40(SB)/8, $0x8080808080808080
DATA gather<>+48(SB)/8, $0x0800808080808080
DATA gather<>+56(SB)/8, $0x8080808080808080
DATA gather<>+64(SB)/8, $0x8080808080808080
DATA gather<>+72(SB)/8, $0x8080808080800800
DATA gather<>+80(SB)/8, $0x8080808080808080
DATA gather<>+88(SB)/8, $0x8080808008008080
DATA gather<>+96(SB)/8, $0x8080808080808080
DATA gather<>+104(SB)/8, $0x8080080080808080
DATA gather<>+112(SB)/8, $0x8080808080808080
DATA gather<>+120(SB)/8, $0x0800808080808080
GLOBL gather<>(SB), RODATA|NOPTR, $128

// spread gives byte j of a broadcast dword's lane the dword's byte j/8:
// the byte that holds bit j.
DATA spread<>+0(SB)/8, $0x0000000000000000
DATA spread<>+8(SB)/8, $0x0101010101010101
DATA spread<>+16(SB)/8, $0x0202020202020202
DATA spread<>+24(SB)/8, $0x0303030303030303
GLOBL spread<>(SB), RODATA|NOPTR, $32

// bitOf is 1 << (j mod 8) in byte j.
DATA bitOf<>+0(SB)/8, $0x8040201008040201
GLOBL bitOf<>(SB), RODATA|NOPTR, $8

// GATHER16 leaves in H the low byte of (u[i] >> base) for the sixteen
// coefficients at SI, and moves SI past them: coefficient i sits in
// byte i of the low lane when i mod 4 < 2 and of the high lane
// otherwise, every other byte zero. COMBINE ORs the two lanes.
#define GATHER16(H) \
	VMOVDQU   (SI), Y0; \
	VMOVDQU   32(SI), Y1; \
	VMOVDQU   64(SI), Y2; \
	VMOVDQU   96(SI), Y3; \
	VPSRLQ    X12, Y0, Y0; \
	VPSRLQ    X12, Y1, Y1; \
	VPSRLQ    X12, Y2, Y2; \
	VPSRLQ    X12, Y3, Y3; \
	VPSHUFB   Y8, Y0, Y0; \
	VPSHUFB   Y9, Y1, Y1; \
	VPSHUFB   Y10, Y2, Y2; \
	VPSHUFB   Y11, Y3, Y3; \
	VPOR      Y1, Y0, Y0; \
	VPOR      Y3, Y2, Y2; \
	VPOR      Y2, Y0, H; \
	ADDQ      $128, SI

// COMBINE folds the lanes of Y4 (coefficients 0-15 of a run of 32) and
// Y5 (16-31) into Y0, byte i holding coefficient i.
#define COMBINE \
	VPERM2I128 $0x20, Y5, Y4, Y0; \
	VPERM2I128 $0x31, Y5, Y4, Y1; \
	VPOR       Y1, Y0, Y0

// READOUT stores the top bit of every byte of Y0, then of twice each
// byte and so on: planes base+7 down to base, with STORE (MOVQ for the
// whole word, MOVL for its low half) at DI.
#define READOUT(STORE) \
	VPMOVMSKB Y0, AX; \
	STORE     AX, 56(DI); \
	VPADDB    Y0, Y0, Y0; \
	VPMOVMSKB Y0, AX; \
	STORE     AX, 48(DI); \
	VPADDB    Y0, Y0, Y0; \
	VPMOVMSKB Y0, AX; \
	STORE     AX, 40(DI); \
	VPADDB    Y0, Y0, Y0; \
	VPMOVMSKB Y0, AX; \
	STORE     AX, 32(DI); \
	VPADDB    Y0, Y0, Y0; \
	VPMOVMSKB Y0, AX; \
	STORE     AX, 24(DI); \
	VPADDB    Y0, Y0, Y0; \
	VPMOVMSKB Y0, AX; \
	STORE     AX, 16(DI); \
	VPADDB    Y0, Y0, Y0; \
	VPMOVMSKB Y0, AX; \
	STORE     AX, 8(DI); \
	VPADDB    Y0, Y0, Y0; \
	VPMOVMSKB Y0, AX; \
	STORE     AX, (DI)

// func transposePlanesAVX2(planes *[8]uint64, u []uint64, base int)
//
// Sets planes[p] to plane base+p of u (16 or 64 coefficients): bit i
// of planes[p] is bit base+p of u[i]. Each run of 32 coefficients is
// shifted down by base, byte 0 of every qword gathered into one
// register in coefficient order, and VPMOVMSKB reads out the eight
// planes, the register doubled bytewise between reads. The first run
// writes whole words, so a 16-coefficient block gets zero high halves;
// the second writes the high halves.
TEXT ·transposePlanesAVX2(SB), NOSPLIT, $0-40
	MOVQ planes+0(FP), DI
	MOVQ u_base+8(FP), SI
	MOVQ u_len+16(FP), CX
	MOVQ base+32(FP), AX
	MOVQ AX, X12
	VMOVDQU gather<>+0(SB), Y8
	VMOVDQU gather<>+32(SB), Y9
	VMOVDQU gather<>+64(SB), Y10
	VMOVDQU gather<>+96(SB), Y11

	GATHER16(Y4)
	VPXOR Y5, Y5, Y5
	CMPQ  CX, $16
	JEQ   low
	GATHER16(Y5)

low:
	COMBINE
	READOUT(MOVQ)
	CMPQ CX, $16
	JEQ  done

	GATHER16(Y4)
	GATHER16(Y5)
	COMBINE
	ADDQ $4, DI
	READOUT(MOVL)

done:
	VZEROUPPER
	RET

// ACC8 leaves in Y2 byte j = bits base+7..base of coefficient j of a
// run of 32, from the dword at DI+8p of each planes[p]: the dword is
// broadcast, each byte given the byte of the dword that holds its bit
// (spread, Y10), and VPAND/VPCMPEQB against bitOf (Y11) turn a set bit
// into 0xFF. acc = 2*acc - mask appends the bit, plane base+7 first.
#define PLANE(OFF) \
	VPBROADCASTD OFF(DI), Y0; \
	VPSHUFB      Y10, Y0, Y0; \
	VPAND        Y11, Y0, Y0; \
	VPCMPEQB     Y11, Y0, Y0; \
	VPADDB       Y2, Y2, Y2; \
	VPSUBB       Y0, Y2, Y2

#define ACC8 \
	VPXOR Y2, Y2, Y2; \
	PLANE(56); \
	PLANE(48); \
	PLANE(40); \
	PLANE(32); \
	PLANE(24); \
	PLANE(16); \
	PLANE(8); \
	PLANE(0); \
	VMOVDQU Y2, (SP)

// MERGE4 ORs the bytes at OFF(SP) of the four coefficients at SI,
// shifted up to base, into them, and moves SI past them.
#define MERGE4(OFF) \
	VPMOVZXBQ OFF(SP), Y0; \
	VPSLLQ    X12, Y0, Y0; \
	VPOR      (SI), Y0, Y0; \
	VMOVDQU   Y0, (SI); \
	ADDQ      $32, SI

// func untransposePlanesAVX2(planes *[8]uint64, u []uint64, base int)
//
// ORs planes[p] into bit base+p of u (16 or 64 coefficients): bit i of
// planes[p] goes to u[i]. The inverse of transposePlanesAVX2, one run
// of 32 coefficients (a half of each plane word) at a time.
TEXT ·untransposePlanesAVX2(SB), NOSPLIT, $32-40
	MOVQ planes+0(FP), DI
	MOVQ u_base+8(FP), SI
	MOVQ u_len+16(FP), CX
	MOVQ base+32(FP), AX
	MOVQ AX, X12
	VMOVDQU      spread<>(SB), Y10
	VPBROADCASTQ bitOf<>(SB), Y11

	ACC8
	MERGE4(0)
	MERGE4(4)
	MERGE4(8)
	MERGE4(12)
	CMPQ CX, $16
	JEQ  done
	MERGE4(16)
	MERGE4(20)
	MERGE4(24)
	MERGE4(28)

	ADDQ $4, DI
	ACC8
	MERGE4(0)
	MERGE4(4)
	MERGE4(8)
	MERGE4(12)
	MERGE4(16)
	MERGE4(20)
	MERGE4(24)
	MERGE4(28)

done:
	VZEROUPPER
	RET
