// Trampoline into emitted native code. The emitted code's ABI (see
// emit_amd64.go): R12 = *x86.State, R13 = *Ctx, and four zeroed
// accumulators the emitted epilogue drains: RSI cycles, RDI instructions,
// RBX Memory.Reads bytes, R11 Memory.Writes bytes. SP, BP, R14 (g), R15
// untouched. Emitted code returns with a plain RET after storing its
// outcome into Ctx.

#include "textflag.h"

// func enter(entry uintptr, st *x86.State, ctx *Ctx)
TEXT ·enter(SB), NOSPLIT|NOFRAME, $0-24
	MOVQ entry+0(FP), AX
	MOVQ st+8(FP), R12
	MOVQ ctx+16(FP), R13
	XORQ SI, SI
	XORQ DI, DI
	XORQ BX, BX
	XORQ R11, R11
	CALL AX
	RET
