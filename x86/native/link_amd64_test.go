//go:build amd64

package native_test

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"dbtrules/dbt/jitbuf"
	"dbtrules/mach"
	"dbtrules/x86"
	"dbtrules/x86/native"
)

// TestLinkedEnterMatchesSeparate pins the link stub against the engine's
// own chained dispatch: two compiled blocks, A exiting to guest pc 7 and
// B to a pc no record links, run under one Enter through a hand-built
// link record, must leave the accumulators, the State and memory exactly
// as two separate Enters do with the engine's chained-dispatch charges
// in between (the dispatch cycles, the 4-byte guest pc read, a fresh
// host ESP). Each breaker must instead stop the chain after A.
func TestLinkedEnterMatchesSeparate(t *testing.T) {
	const (
		pcWord     = 0x5000 // the guest pc word every block exit stores
		dataWord   = 0x6000
		stackTop   = 0x7800
		gpcB       = 7
		linkCycles = 2
	)
	abs := func(addr uint32) x86.Operand { return x86.MemOp(x86.MemRef{Disp: int32(addr)}) }
	hostA := []x86.Instr{
		{Op: x86.ADD, Src: x86.ImmOp(3), Dst: x86.RegOp(x86.EAX)},
		{Op: x86.MOV, Src: x86.RegOp(x86.EAX), Dst: abs(dataWord)},
		{Op: x86.PUSH, Dst: x86.RegOp(x86.EAX)}, // moves ESP off the top
		{Op: x86.MOV, Src: x86.ImmOp(gpcB), Dst: abs(pcWord)},
	}
	hostB := []x86.Instr{
		{Op: x86.MOV, Src: abs(dataWord), Dst: x86.RegOp(x86.ECX)},
		{Op: x86.PUSH, Dst: x86.RegOp(x86.ECX)},
		{Op: x86.CMP, Src: x86.ImmOp(10), Dst: x86.RegOp(x86.ECX)},
		{Op: x86.MOV, Src: x86.ImmOp(99), Dst: abs(pcWord)},
	}
	buf := jitbuf.New()
	compile := func(host []x86.Instr) (uintptr, int) {
		code, err := native.Compile(host, testCosts(len(host)))
		if err != nil {
			t.Fatal(err)
		}
		entry, err := buf.Place(code.Text)
		if err != nil {
			t.Fatal(err)
		}
		return entry, len(host)
	}
	entryA, lenA := compile(hostA)
	entryB, lenB := compile(hostB)

	// fresh returns a state with every page the blocks touch resident and
	// installed in a fresh Ctx, so neither block bails.
	fresh := func() (*x86.State, *native.Ctx) {
		st := x86.NewState()
		st.R[x86.EAX], st.R[x86.ESP] = 4, stackTop
		ctx := native.NewCtx()
		for _, addr := range []uint32{pcWord, dataWord, stackTop - 4} {
			st.Mem.Write32(addr, 0)
			ctx.Install(addr, st.Mem.PageBase(addr))
		}
		st.Mem.Reads, st.Mem.Writes = 0, 0
		return st, ctx
	}

	// The reference: two Enters, with the engine's chained dispatch of B
	// in between.
	want, wantCtx := fresh()
	native.Enter(entryA, want, wantCtx)
	wantCtx.Cycles += linkCycles
	want.Mem.Reads += 4
	want.R[x86.ESP] = stackTop
	native.Enter(entryB, want, wantCtx)

	var stop atomic.Uint32
	rows := []struct {
		name   string
		setup  func(ctx *native.Ctx)
		linked bool
	}{
		{"linked", func(ctx *native.Ctx) {}, true},
		{"stop", func(ctx *native.Ctx) { stop.Store(1) }, false},
		{"budget", func(ctx *native.Ctx) { ctx.Left = -1 }, false},
		{"no-record", func(ctx *native.Ctx) { ctx.Cur = 0 }, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var execB uint64
			recB := &native.Link{HostLen: int64(lenB), GuestLen: 3, Covered: 1, Exec: &execB, ID: 1}
			recB.Unlink()
			recA := &native.Link{HostLen: int64(lenA), GuestLen: 2, ID: 0}
			recA.Unlink()
			if !recA.Add(gpcB, entryB, recB) || recA.Add(gpcB, entryB, recB) {
				t.Fatal("Add must take a new edge once")
			}
			st, ctx := fresh()
			stop.Store(0)
			ctx.Cur, ctx.CurID, ctx.Left = uintptr(unsafe.Pointer(recA)), 0, 100
			ctx.Stop = &stop
			ctx.EnvPC = (*uint32)(unsafe.Pointer(&st.Mem.PageBase(pcWord)[pcWord&(mach.PageSize-1)]))
			ctx.StackTop, ctx.LinkCycles = stackTop, linkCycles
			row.setup(ctx)
			native.Enter(entryA, st, ctx)

			if !row.linked {
				if ctx.Links != 0 || execB != 0 || st.Mem.Read32(pcWord) != gpcB {
					t.Fatalf("breaker did not stop the chain after A: %d links, B ran %d times", ctx.Links, execB)
				}
				return
			}
			if ctx.Links != 1 || ctx.LinkGuest != 3 || ctx.LinkCovered != 1 || execB != 1 ||
				ctx.CurID != 1 || ctx.Cur != uintptr(unsafe.Pointer(recB)) || ctx.Left != 100-3 {
				t.Fatalf("link counters: links %d guest %d covered %d exec %d cur %d left %d",
					ctx.Links, ctx.LinkGuest, ctx.LinkCovered, execB, ctx.CurID, ctx.Left)
			}
			if ctx.Cycles != wantCtx.Cycles || ctx.Instrs != wantCtx.Instrs ||
				ctx.NextPC != wantCtx.NextPC || ctx.Bail != wantCtx.Bail {
				t.Fatalf("ctx: cycles %d instrs %d next %d bail %d, separate Enters %d %d %d %d",
					ctx.Cycles, ctx.Instrs, ctx.NextPC, ctx.Bail,
					wantCtx.Cycles, wantCtx.Instrs, wantCtx.NextPC, wantCtx.Bail)
			}
			if st.R != want.R || st.CF != want.CF || st.ZF != want.ZF || st.SF != want.SF ||
				st.OF != want.OF || st.Steps != want.Steps {
				t.Fatalf("state diverges\nlinked:   %v steps %d\nseparate: %v steps %d", st.R, st.Steps, want.R, want.Steps)
			}
			if st.Mem.Reads != want.Mem.Reads || st.Mem.Writes != want.Mem.Writes || !st.Mem.Equal(want.Mem) {
				t.Fatalf("memory or access counters diverge: %d/%d, separate %d/%d",
					st.Mem.Reads, st.Mem.Writes, want.Mem.Reads, want.Mem.Writes)
			}
		})
	}
}
