//go:build amd64

#include "textflag.h"

// func crc3SSE42(crcs *[3]uint32, a, b, c *byte, n int)
//
// Continues the three CRC-32C values in crcs over n bytes (a multiple
// of 8) at a, b and c. One CRC32Q has a latency of three cycles and a
// throughput of one a cycle, so three independent chains, one a
// buffer, keep the unit busy where one chain leaves it idle two cycles
// in three.
TEXT ·crc3SSE42(SB), NOSPLIT, $0-40
	MOVQ crcs+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ c+24(FP), R9
	MOVQ n+32(FP), CX
	MOVL 0(DI), AX
	MOVL 4(DI), BX
	MOVL 8(DI), DX
	NOTL AX
	NOTL BX
	NOTL DX
	XORQ R10, R10 // offset into each buffer
	CMPQ R10, CX
	JGE  done

loop:
	CRC32Q (SI)(R10*1), AX
	CRC32Q (R8)(R10*1), BX
	CRC32Q (R9)(R10*1), DX
	ADDQ   $8, R10
	CMPQ   R10, CX
	JL     loop

done:
	NOTL AX
	NOTL BX
	NOTL DX
	MOVL AX, 0(DI)
	MOVL BX, 4(DI)
	MOVL DX, 8(DI)
	RET
