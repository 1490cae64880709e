#include "textflag.h"

// func gemmKernel4x4(c *[16]float32, ap, bp *float32, k int)
//
// c is the row-major 4x4 tile; row i lives in one XMM register for the
// whole reduction. For each k the packed A column (4 rows) and B row
// (4 cols) are loaded, each A lane is broadcast with PSHUFD, multiplied
// into the B row with MULPS and accumulated with ADDPS. Separate MULPS
// and ADDPS round exactly like the scalar c += a*b, so the tile is
// bit-identical to gemmKernel4x4Go.
TEXT ·gemmKernel4x4(SB), NOSPLIT, $0-32
	MOVQ   c+0(FP), DI
	MOVQ   ap+8(FP), SI
	MOVQ   bp+16(FP), DX
	MOVQ   k+24(FP), CX
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	TESTQ  CX, CX
	JLE    done

loop:
	MOVUPS (DX), X4
	MOVUPS (SI), X5
	PSHUFD $0x00, X5, X6
	PSHUFD $0x55, X5, X7
	PSHUFD $0xaa, X5, X8
	PSHUFD $0xff, X5, X9
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	MULPS  X4, X9
	ADDPS  X6, X0
	ADDPS  X7, X1
	ADDPS  X8, X2
	ADDPS  X9, X3
	ADDQ   $16, SI
	ADDQ   $16, DX
	DECQ   CX
	JNZ    loop

done:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET
