//go:build amd64

#include "textflag.h"

// nibMask is the 0x0F byte mask the nibble kernels broadcast.
DATA nibMask<>+0(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA nibMask<>+8(SB)/8, $0x0F0F0F0F0F0F0F0F
GLOBL nibMask<>(SB), RODATA|NOPTR, $16

// func cpuid(op uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	XORL CX, CX
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

// func gfMulXorNib(tab *[32]byte, src, dst []byte)
//
// dst[i] ^= mul(src[i]) for len(src) bytes (a multiple of 16).
// tab[0:16] holds the products of the low nibble values, tab[16:32]
// the products of the high nibble values (already shifted into place
// when the table was built): mul(x) = tab[x&0x0F] ^ tab[16+(x>>4)].
TEXT ·gfMulXorNib(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	MOVOU (AX), X0            // low-nibble product table
	MOVOU 16(AX), X1          // high-nibble product table
	MOVQ  $0x0F0F0F0F0F0F0F0F, AX
	MOVQ  AX, X2
	PUNPCKLQDQ X2, X2         // broadcast: 16 lanes of 0x0F
	SHRQ $4, CX               // 16-byte blocks
	JZ   xordone

xorloop:
	MOVOU (SI), X3            // 16 source bytes
	MOVOU X3, X4
	PAND  X2, X3              // low nibbles
	PSRLW $4, X4
	PAND  X2, X4              // high nibbles
	MOVOU X0, X5
	MOVOU X1, X6
	PSHUFB X3, X5             // products of the low halves
	PSHUFB X4, X6             // products of the high halves
	PXOR  X6, X5              // mul(src)
	MOVOU (DI), X7
	PXOR  X7, X5              // accumulate into dst
	MOVOU X5, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	DECQ  CX
	JNZ   xorloop

xordone:
	RET

// func gfMulNib(tab *[32]byte, src, dst []byte)
//
// dst[i] = mul(src[i]) — the overwrite variant of gfMulXorNib.
TEXT ·gfMulNib(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	MOVOU (AX), X0
	MOVOU 16(AX), X1
	MOVQ  $0x0F0F0F0F0F0F0F0F, AX
	MOVQ  AX, X2
	PUNPCKLQDQ X2, X2
	SHRQ $4, CX
	JZ   done

loop:
	MOVOU (SI), X3
	MOVOU X3, X4
	PAND  X2, X3
	PSRLW $4, X4
	PAND  X2, X4
	MOVOU X0, X5
	MOVOU X1, X6
	PSHUFB X3, X5
	PSHUFB X4, X6
	PXOR  X6, X5
	MOVOU X5, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	DECQ  CX
	JNZ   loop

done:
	RET

// func gfMulXorAVX2(tab *[32]byte, src, dst []byte)
//
// The AVX2 widening of gfMulXorNib: the two 16-byte nibble product
// tables are broadcast into both 128-bit lanes of a YMM register
// (VPSHUFB shuffles within each lane independently, so both lanes need
// the full table), then each iteration multiplies 32 source bytes.
// len(src) must be a multiple of 32.
TEXT ·gfMulXorAVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	VBROADCASTI128 (AX), Y0       // low-nibble product table, both lanes
	VBROADCASTI128 16(AX), Y1     // high-nibble product table, both lanes
	VBROADCASTI128 nibMask<>(SB), Y2
	SHRQ $5, CX                   // 32-byte blocks
	JZ   axordone

axorloop:
	VMOVDQU (SI), Y3              // 32 source bytes
	VPSRLW  $4, Y3, Y4
	VPAND   Y2, Y3, Y3            // low nibbles
	VPAND   Y2, Y4, Y4            // high nibbles
	VPSHUFB Y3, Y0, Y5            // products of the low halves
	VPSHUFB Y4, Y1, Y6            // products of the high halves
	VPXOR   Y6, Y5, Y5            // mul(src)
	VPXOR   (DI), Y5, Y5          // accumulate into dst
	VMOVDQU Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axorloop

axordone:
	VZEROUPPER
	RET

// func gfMulAVX2(tab *[32]byte, src, dst []byte)
//
// dst[i] = mul(src[i]) — the overwrite variant of gfMulXorAVX2.
TEXT ·gfMulAVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	VBROADCASTI128 nibMask<>(SB), Y2
	SHRQ $5, CX
	JZ   adone

aloop:
	VMOVDQU (SI), Y3
	VPSRLW  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPXOR   Y6, Y5, Y5
	VMOVDQU Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     aloop

adone:
	VZEROUPPER
	RET

// func gfXorAVX2(src, dst []byte)
//
// dst[i] ^= src[i] over 32-byte lanes; len(src) must be a multiple
// of 32.
TEXT ·gfXorAVX2(SB), NOSPLIT, $0-48
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	SHRQ $5, CX
	JZ   xdone

xloop:
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     xloop

xdone:
	VZEROUPPER
	RET

// func mulRowsAVX2(srcs []srcRef, rows, dsts *[8]*byte, n, nrows int)
//
// dst_i[0:n] = sum_j tab_i,j-multiply(src_j[0:n]) for the first nrows
// (1 to 8) destinations, n a positive multiple of 32. Each srcRef is a
// source's base and the offset of its column's 32-byte nibble table in
// a row of tables; rows[i] is destination i's row of tables. The
// kernel walks the destinations 32 bytes at a time: it loads every
// source block of the column once, splits its nibbles once, multiplies
// it into all nrows accumulators (Y0-Y7) and stores each destination
// once. It jumps to the body unrolled for nrows, so no accumulator or
// table load is wasted on an absent row.
TEXT ·mulRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ nrows+48(FP), AX
	CMPQ AX, $8
	JEQ  r8
	CMPQ AX, $7
	JEQ  r7
	CMPQ AX, $6
	JEQ  r6
	CMPQ AX, $5
	JEQ  r5
	CMPQ AX, $4
	JEQ  r4
	CMPQ AX, $3
	JEQ  r3
	CMPQ AX, $2
	JEQ  r2
	JMP  mulRows1<>(SB)
r2:
	JMP mulRows2<>(SB)
r3:
	JMP mulRows3<>(SB)
r4:
	JMP mulRows4<>(SB)
r5:
	JMP mulRows5<>(SB)
r6:
	JMP mulRows6<>(SB)
r7:
	JMP mulRows7<>(SB)
r8:
	JMP mulRows8<>(SB)

// MULADD multiplies the split source block (Y9 low nibbles, Y10 high)
// by the coefficient whose table sits at T+CX and xors the product into
// ACC.
#define MULADD(T, ACC) \
	VBROADCASTI128 (T)(CX*1), Y11; \
	VBROADCASTI128 16(T)(CX*1), Y12; \
	VPSHUFB        Y9, Y11, Y11; \
	VPSHUFB        Y10, Y12, Y12; \
	VPXOR          Y11, Y12, Y11; \
	VPXOR          Y11, ACC, ACC

// STORE writes ACC to the destination at byte OFF of dsts (in DI), at
// column AX.
#define STORE(OFF, ACC) \
	MOVQ    OFF(DI), CX; \
	VMOVDQU ACC, (CX)(AX*1)

// ZEROn, MULADDn and STOREn clear, accumulate and store the first n
// destinations: tables rows R8-R14 and BX, accumulators Y0-Y7.
#define ZERO1 VPXOR Y0, Y0, Y0
#define ZERO2 ZERO1; VPXOR Y1, Y1, Y1
#define ZERO3 ZERO2; VPXOR Y2, Y2, Y2
#define ZERO4 ZERO3; VPXOR Y3, Y3, Y3
#define ZERO5 ZERO4; VPXOR Y4, Y4, Y4
#define ZERO6 ZERO5; VPXOR Y5, Y5, Y5
#define ZERO7 ZERO6; VPXOR Y6, Y6, Y6
#define ZERO8 ZERO7; VPXOR Y7, Y7, Y7

#define MULADD1 MULADD(R8, Y0)
#define MULADD2 MULADD1; MULADD(R9, Y1)
#define MULADD3 MULADD2; MULADD(R10, Y2)
#define MULADD4 MULADD3; MULADD(R11, Y3)
#define MULADD5 MULADD4; MULADD(R12, Y4)
#define MULADD6 MULADD5; MULADD(R13, Y5)
#define MULADD7 MULADD6; MULADD(R14, Y6)
#define MULADD8 MULADD7; MULADD(BX, Y7)

#define STORE1 STORE(0, Y0)
#define STORE2 STORE1; STORE(8, Y1)
#define STORE3 STORE2; STORE(16, Y2)
#define STORE4 STORE3; STORE(24, Y3)
#define STORE5 STORE4; STORE(32, Y4)
#define STORE6 STORE5; STORE(40, Y5)
#define STORE7 STORE6; STORE(48, Y6)
#define STORE8 STORE7; STORE(56, Y7)

// MULROWS is the kernel body for a fixed number of destinations.
// Registers: AX the column, SI the srcRef cursor and DX its end, DI a
// source (then dsts), CX the table offset (then a destination), Y8 the
// nibble mask.
#define MULROWS(NAME, ZERO, MULADDS, STORES) \
TEXT NAME(SB), NOSPLIT, $0-56; \
	MOVQ           rows+24(FP), DI; \
	MOVQ           0(DI), R8; \
	MOVQ           8(DI), R9; \
	MOVQ           16(DI), R10; \
	MOVQ           24(DI), R11; \
	MOVQ           32(DI), R12; \
	MOVQ           40(DI), R13; \
	MOVQ           48(DI), R14; \
	MOVQ           56(DI), BX; \
	MOVQ           srcs_len+8(FP), DX; \
	SHLQ           $4, DX; \
	ADDQ           srcs_base+0(FP), DX; \
	VBROADCASTI128 nibMask<>(SB), Y8; \
	XORQ           AX, AX; \
column: \
	ZERO; \
	MOVQ           srcs_base+0(FP), SI; \
source: \
	MOVQ           (SI), DI; \
	MOVQ           8(SI), CX; \
	VMOVDQU        (DI)(AX*1), Y9; \
	VPSRLW         $4, Y9, Y10; \
	VPAND          Y8, Y9, Y9; \
	VPAND          Y8, Y10, Y10; \
	MULADDS; \
	ADDQ           $16, SI; \
	CMPQ           SI, DX; \
	JNE            source; \
	MOVQ           dsts+32(FP), DI; \
	STORES; \
	ADDQ           $32, AX; \
	CMPQ           AX, n+40(FP); \
	JNE            column; \
	VZEROUPPER; \
	RET

MULROWS(mulRows1<>, ZERO1, MULADD1, STORE1)
MULROWS(mulRows2<>, ZERO2, MULADD2, STORE2)
MULROWS(mulRows3<>, ZERO3, MULADD3, STORE3)
MULROWS(mulRows4<>, ZERO4, MULADD4, STORE4)
MULROWS(mulRows5<>, ZERO5, MULADD5, STORE5)
MULROWS(mulRows6<>, ZERO6, MULADD6, STORE6)
MULROWS(mulRows7<>, ZERO7, MULADD7, STORE7)
MULROWS(mulRows8<>, ZERO8, MULADD8, STORE8)

// func gfMulXorGFNI(mat *uint64, src, dst []byte)
//
// dst[i] ^= mul(src[i]) over 32-byte lanes, mul the affine map of the
// 8x8 bit matrix *mat, broadcast to the four qwords of Y0: one
// VGF2P8AFFINEQB per 32 bytes where gfMulXorAVX2 takes two shuffles,
// two masks, a shift and an xor. len(src) must be a multiple of 32.
TEXT ·gfMulXorGFNI(SB), NOSPLIT, $0-56
	MOVQ         mat+0(FP), AX
	MOVQ         src_base+8(FP), SI
	MOVQ         src_len+16(FP), CX
	MOVQ         dst_base+32(FP), DI
	VPBROADCASTQ (AX), Y0
	SHRQ         $5, CX
	JZ           gxordone

gxorloop:
	VMOVDQU        (SI), Y1
	VGF2P8AFFINEQB $0, Y0, Y1, Y1
	VPXOR          (DI), Y1, Y1
	VMOVDQU        Y1, (DI)
	ADDQ           $32, SI
	ADDQ           $32, DI
	DECQ           CX
	JNZ            gxorloop

gxordone:
	VZEROUPPER
	RET

// func gfMulGFNI(mat *uint64, src, dst []byte)
//
// dst[i] = mul(src[i]) — the overwrite variant of gfMulXorGFNI.
TEXT ·gfMulGFNI(SB), NOSPLIT, $0-56
	MOVQ         mat+0(FP), AX
	MOVQ         src_base+8(FP), SI
	MOVQ         src_len+16(FP), CX
	MOVQ         dst_base+32(FP), DI
	VPBROADCASTQ (AX), Y0
	SHRQ         $5, CX
	JZ           gdone

gloop:
	VMOVDQU        (SI), Y1
	VGF2P8AFFINEQB $0, Y0, Y1, Y1
	VMOVDQU        Y1, (DI)
	ADDQ           $32, SI
	ADDQ           $32, DI
	DECQ           CX
	JNZ            gloop

gdone:
	VZEROUPPER
	RET

// func mulRowsGFNI(srcs []srcRef, mats *uint64, dsts *[8]*byte, n, nrows int)
//
// mulRowsAVX2 with one affine multiply per pair: dst_r[0:n] = sum_j
// A_r,j(src_j[0:n]) for the first nrows (1 to 8) destinations. Each
// srcRef is a source's base and the offset of its column's 8-byte
// matrices from mats; row r's matrix follows at 8*r, so the pass needs
// no row pointers. The kernel walks the destinations 32 bytes at a
// time, loading every source block of the column once, and stores each
// destination once. It jumps to the body unrolled for nrows.
TEXT ·mulRowsGFNI(SB), NOSPLIT, $0-56
	MOVQ nrows+48(FP), AX
	CMPQ AX, $8
	JEQ  g8
	CMPQ AX, $7
	JEQ  g7
	CMPQ AX, $6
	JEQ  g6
	CMPQ AX, $5
	JEQ  g5
	CMPQ AX, $4
	JEQ  g4
	CMPQ AX, $3
	JEQ  g3
	CMPQ AX, $2
	JEQ  g2
	JMP  mulRowsG1<>(SB)
g2:
	JMP mulRowsG2<>(SB)
g3:
	JMP mulRowsG3<>(SB)
g4:
	JMP mulRowsG4<>(SB)
g5:
	JMP mulRowsG5<>(SB)
g6:
	JMP mulRowsG6<>(SB)
g7:
	JMP mulRowsG7<>(SB)
g8:
	JMP mulRowsG8<>(SB)

// AFFADD multiplies the source block (Y8) by the matrix at byte OFF
// past R8+CX, broadcast to the four qwords of Y9, and xors the product
// into ACC.
#define AFFADD(OFF, ACC) \
	VPBROADCASTQ   OFF(R8)(CX*1), Y9; \
	VGF2P8AFFINEQB $0, Y9, Y8, Y9; \
	VPXOR          Y9, ACC, ACC

// AFFADDn accumulates the first n destinations, Y0-Y7; ZEROn and
// STOREn clear and store them as in mulRowsAVX2.
#define AFFADD1 AFFADD(0, Y0)
#define AFFADD2 AFFADD1; AFFADD(8, Y1)
#define AFFADD3 AFFADD2; AFFADD(16, Y2)
#define AFFADD4 AFFADD3; AFFADD(24, Y3)
#define AFFADD5 AFFADD4; AFFADD(32, Y4)
#define AFFADD6 AFFADD5; AFFADD(40, Y5)
#define AFFADD7 AFFADD6; AFFADD(48, Y6)
#define AFFADD8 AFFADD7; AFFADD(56, Y7)

// MULROWSGFNI is the kernel body for a fixed number of destinations.
// Registers: AX the column, SI the srcRef cursor and DX its end, DI a
// source (then dsts), CX its matrices' offset (then a destination), R8
// the pass's matrices.
#define MULROWSGFNI(NAME, ZERO, AFFADDS, STORES) \
TEXT NAME(SB), NOSPLIT, $0-56; \
	MOVQ           mats+24(FP), R8; \
	MOVQ           srcs_len+8(FP), DX; \
	SHLQ           $4, DX; \
	ADDQ           srcs_base+0(FP), DX; \
	XORQ           AX, AX; \
column: \
	ZERO; \
	MOVQ           srcs_base+0(FP), SI; \
source: \
	MOVQ           (SI), DI; \
	MOVQ           8(SI), CX; \
	VMOVDQU        (DI)(AX*1), Y8; \
	AFFADDS; \
	ADDQ           $16, SI; \
	CMPQ           SI, DX; \
	JNE            source; \
	MOVQ           dsts+32(FP), DI; \
	STORES; \
	ADDQ           $32, AX; \
	CMPQ           AX, n+40(FP); \
	JNE            column; \
	VZEROUPPER; \
	RET

MULROWSGFNI(mulRowsG1<>, ZERO1, AFFADD1, STORE1)
MULROWSGFNI(mulRowsG2<>, ZERO2, AFFADD2, STORE2)
MULROWSGFNI(mulRowsG3<>, ZERO3, AFFADD3, STORE3)
MULROWSGFNI(mulRowsG4<>, ZERO4, AFFADD4, STORE4)
MULROWSGFNI(mulRowsG5<>, ZERO5, AFFADD5, STORE5)
MULROWSGFNI(mulRowsG6<>, ZERO6, AFFADD6, STORE6)
MULROWSGFNI(mulRowsG7<>, ZERO7, AFFADD7, STORE7)
MULROWSGFNI(mulRowsG8<>, ZERO8, AFFADD8, STORE8)
