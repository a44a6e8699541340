//go:build amd64

package native

import "dbtrules/x86"

// Enter runs emitted code at entry (a Code entry point placed in
// executable memory, offset already applied) against st and ctx. It
// returns when the block exits or bails; the outcome is in ctx.
//
// The trampoline is a bare CALL: emitted code uses only registers the Go
// ABI treats as caller-saved scratch (never SP, BP, R14/g, R15), so
// nothing needs spilling on either side.
func Enter(entry uintptr, st *x86.State, ctx *Ctx) {
	enter(entry, st, ctx)
}

func enter(entry uintptr, st *x86.State, ctx *Ctx)
