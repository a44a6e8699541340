//go:build amd64

package native

import (
	"sync/atomic"
	"unsafe"

	"dbtrules/x86"
)

// Enter runs emitted code at entry (a Code entry point placed in
// executable memory, offset already applied) against st and ctx. It
// returns when the block exits or bails, unless ctx.Cur names a Link
// record that links the exit: then the trampoline's link stub goes on
// to the successor block, and so on until a block bails or exits over an
// edge no record links, or a breaker trips (ctx.Left below zero,
// *ctx.Stop nonzero). The outcome of the last block that ran is in ctx.
//
// The trampoline is a bare CALL: emitted code uses only registers the Go
// ABI treats as caller-saved scratch (never SP, BP, R14/g, R15), so
// nothing needs spilling on either side.
func Enter(entry uintptr, st *x86.State, ctx *Ctx) {
	enter(entry, st, ctx)
}

func enter(entry uintptr, st *x86.State, ctx *Ctx)

// stateESP is the offset of the host ESP slot in x86.State, which the
// link stub resets for every linked dispatch.
const stateESP = unsafe.Offsetof(x86.State{}.R) + 4*uintptr(x86.ESP)

// The link stub polls *Ctx.Stop as a plain 32-bit word, and scans the
// successor slots unrolled, four of them.
var _ [unsafe.Sizeof(atomic.Uint32{}) - 4]struct{}
var _ [4 - unsafe.Sizeof(atomic.Uint32{})]struct{}
var _ [LinkSlots - 4]struct{}
var _ [4 - LinkSlots]struct{}
