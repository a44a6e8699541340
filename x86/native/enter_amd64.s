// Trampoline into emitted native code, and the link stub. The emitted
// code's ABI (see emit_amd64.go): R12 = *x86.State, R13 = *Ctx, and four
// accumulators the emitted epilogue drains: RSI cycles, RDI instructions,
// RBX Memory.Reads bytes, R11 Memory.Writes bytes. SP, BP, R14 (g), R15
// untouched. Emitted code returns with a plain RET after storing its
// outcome into Ctx.

#include "textflag.h"
#include "go_asm.h"

// func enter(entry uintptr, st *x86.State, ctx *Ctx)
TEXT ·enter(SB), NOSPLIT|NOFRAME, $0-24
	MOVQ entry+0(FP), AX
	MOVQ st+8(FP), R12
	MOVQ ctx+16(FP), R13
	XORQ SI, SI
	XORQ BX, BX

run:
	XORQ DI, DI
	XORQ R11, R11
	CALL AX

	// The link stub. A block that exited normally (no bail, NextPC past
	// its last instruction) to a guest pc its record links goes straight
	// on to that successor; anything else returns to the caller.
	MOVQ Ctx_Cur(R13), R8
	TESTQ R8, R8
	JZ done
	CMPL Ctx_Bail(R13), $0
	JNE done
	MOVQ Ctx_NextPC(R13), AX
	CMPQ AX, Link_HostLen(R8)
	JCS done // unsigned below: a RET back into the block
	CMPQ Ctx_Left(R13), $0
	JLT done
	MOVQ Ctx_Stop(R13), R9
	CMPL (R9), $0
	JNE done
	MOVQ Ctx_EnvPC(R13), R9
	MOVL (R9), R9 // the guest pc, zero-extended
	LEAQ Link_Succ(R8), R10
	CMPQ R9, LinkSucc_GPC(R10)
	JEQ hit
	ADDQ $LinkSucc__size, R10
	CMPQ R9, LinkSucc_GPC(R10)
	JEQ hit
	ADDQ $LinkSucc__size, R10
	CMPQ R9, LinkSucc_GPC(R10)
	JEQ hit
	ADDQ $LinkSucc__size, R10
	CMPQ R9, LinkSucc_GPC(R10)
	JEQ hit

done:
	RET

hit:
	// R10 is the successor's slot. Charge the dispatch exactly as the
	// engine's chained path does: the chained-dispatch cycles and the 4
	// bytes of the guest pc read go into the accumulators the successor's
	// epilogue drains; the dispatch and its guest instructions into the
	// Ctx counters; one execution into the successor's own counter; and
	// the host stack starts from the top again.
	MOVQ LinkSucc_Entry(R10), AX
	MOVQ LinkSucc_Rec(R10), R8
	MOVQ R8, Ctx_Cur(R13)
	MOVQ Link_ID(R8), R9
	MOVQ R9, Ctx_CurID(R13)
	MOVQ Link_GuestLen(R8), R9
	SUBQ R9, Ctx_Left(R13)
	ADDQ R9, Ctx_LinkGuest(R13)
	MOVQ Link_Covered(R8), R9
	ADDQ R9, Ctx_LinkCovered(R13)
	INCQ Ctx_Links(R13)
	MOVQ Link_Exec(R8), R9
	INCQ (R9)
	MOVL Ctx_StackTop(R13), R9
	MOVL R9, const_stateESP(R12)
	MOVQ Ctx_LinkCycles(R13), SI
	MOVL $4, BX
	JMP run
