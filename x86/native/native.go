// Package native is the third execution tier's back end: it compiles a
// translated block's host x86 instructions to actual amd64 machine code
// operating directly on the virtual x86.State, entered through a small
// assembly trampoline. The deterministic cycle model is preserved
// exactly — emitted code charges the same per-instruction costs, counts
// the same memory access bytes, and reproduces State.Step's flag
// semantics bit for bit (including the modeled divergences from real
// hardware: inc/dec preserving CF, shifts always clearing OF, imul
// setting SF/ZF) — so native is a wall-clock tier, not a semantics
// change.
//
// Charging is per segment. A block is cut into straight-line segments
// (leaders: pc 0, every in-range jump/call target, every pc after a
// branch); a leader adds the summed cost and the instruction count of its
// whole segment to two accumulator registers, and the bodies that follow
// charge nothing. Control that arrives in the middle of a segment from
// outside — the engine resuming after a bail, a RET landing in the block —
// comes through Code.Offsets[pc], which for a non-leader is an out-of-line
// resume entry that charges pc to the segment's end and jumps to the
// inline body. So every pc is a valid entry point, and every executed
// instruction is charged exactly once.
//
// Guest memory is reached through a small software TLB in Ctx that
// caches resident mach.Memory page pointers. For an operand with a
// constant address (no base, no scaled index — the guest CPU state block
// is all of these) the page number, the TLB slot and the in-page offset
// are resolved at compile time, leaving one tag compare and one load of
// the page base; other operands compute the address and probe
// dynamically. Bytes read and written are counted in two more
// accumulator registers. The epilogue every exit runs drains all four
// accumulators: cycles and instructions into Ctx, instructions into
// State.Steps, access bytes into Memory.Reads/Writes.
//
// A miss, a page-straddling word access (decided statically for a
// constant address), or an instruction shape the emitter does not handle
// bails out: the code un-charges the unexecuted rest of the segment, the
// bailing instruction included, stores that instruction's index and
// returns through the epilogue, and the engine executes the one
// instruction through the interpreter tier — charging and counting it
// there — before re-entering at the next pc. Every bail check of an
// instruction precedes its first guest-visible effect, so the
// interpreter re-executes it whole. Every shape stays correct and only
// pays native speed where native code exists.
//
// Flags live in the State flag bytes between instructions, never in host
// EFLAGS, but an instruction stores only the flags that are live after
// it: one backward pass (flagsLiveAfter) finds, per instruction, the
// flags some later instruction reads before they are overwritten, taking
// all four as read at every way out of the pass's view (block exits, RET,
// backward and out-of-range targets, interpreter-only shapes). State
// therefore equals Step's at every block exit, and at a bail it holds
// every flag the bailed instruction or anything after it can read.
//
// Links. Enter's trampoline also holds the link stub, which keeps a run
// in emitted code from one block to the next. Each placed block has a
// fixed-layout Link record — data, never patched code: its chained
// native successors (guest pc, code entry, record; LinkSlots of them),
// its host and guest lengths, its rule-covered guest count and a pointer
// to its execution counter. When Ctx.Cur names the running block's
// record and the block exits normally, the stub reads the guest pc word
// (Ctx.EnvPC), looks it up in the record and enters the successor,
// charging exactly what the engine's chained dispatch charges: the
// chained-dispatch cycles (Ctx.LinkCycles) and the 4-byte read of the
// guest pc into the accumulators, one dispatch and the successor's
// guest and covered instructions into Ctx.Links/LinkGuest/LinkCovered,
// one execution into the successor's counter, and a host ESP reset to
// Ctx.StackTop. It returns to the caller on a link miss, on a bail, on a
// RET back into the block, and on either breaker: the countdown
// Ctx.Left dropping below zero, or a nonzero *Ctx.Stop. The caller
// decides per Enter whether links are on at all.
//
// The whole back end is gated on //go:build amd64 (plus linux for the
// code buffer); elsewhere Supported() is false and the tier ladder tops
// out at threaded.
package native

import (
	"sync/atomic"
	"unsafe"

	"dbtrules/mach"
)

// tlbEntries is the software TLB size: direct-mapped by low page-number
// bits. The hot working set is small (env block, host stack, guest data
// pages), but direct mapping thrashes when two hot pages share a slot —
// every access to one evicts the other and costs a bail round trip
// through the interpreter. 64 entries (a 1 KiB table) pushes conflicts
// out to working sets no corpus program has; on mcf it cuts steady-state
// bails from ~1 per dispatch (16 entries) to ~zero.
const tlbEntries = 64

// tlbEntrySize is the byte stride of one TLBEntry in emitted address
// arithmetic; sized (and padded) to a power of two so the slot index
// becomes one shift.
const tlbEntrySize = 16

// InvalidPN is a page number no 32-bit address maps to, used to mark
// empty TLB entries.
const InvalidPN = ^uint32(0)

// TLBEntry caches one resident guest page: its page number and the host
// address of the page's first byte. Base pointers stay valid for the
// Memory's lifetime (pages never move or get freed — see
// mach.Memory.PageBase), and entries are only ever installed for the
// one Memory the owning engine runs on.
type TLBEntry struct {
	PN   uint32
	_    uint32
	Base uintptr
}

// Ctx is the per-engine native execution context the trampoline hands
// to emitted code (pinned in a register for the block's duration). Its
// layout is part of the emitter's ABI; offsets are asserted at init.
type Ctx struct {
	// TLB is the software TLB. Must stay the first field (emitted code
	// indexes it at offset 0 from the Ctx register).
	TLB [tlbEntries]TLBEntry
	// NextPC receives the next host instruction index when emitted code
	// returns: the bailed instruction's own index when Bail is set, the
	// (out-of-range) successor index on a normal block exit.
	NextPC int64
	// Bail is nonzero when the block stopped before executing the
	// instruction at NextPC (TLB miss, straddle, unsupported shape).
	Bail uint32
	_    uint32
	// Cycles and Instrs accumulate the cycle-model charges for the
	// instructions executed natively since the engine last zeroed them.
	Cycles uint64
	Instrs uint64

	// The link state (see Link). Cur is the record of the block running
	// now and CurID its Link.ID; the caller sets both before entering a
	// block whose exits may be linked, the stub moves them along each
	// link, and Cur == 0 turns links off. The stub links only while Left
	// is not negative, deducting each successor's GuestLen from it; it
	// also stops whenever *Stop is nonzero. EnvPC points at the guest pc
	// word the block exits store; StackTop is the host ESP every dispatch
	// starts from and LinkCycles the cycle charge of a chained dispatch.
	Cur        uintptr
	CurID      int64
	Left       int64
	Stop       *atomic.Uint32
	EnvPC      *uint32
	LinkCycles uint64
	StackTop   uint32
	_          uint32
	// Links counts the links taken since the caller last zeroed it (each
	// one a dispatch, a chain hit and a native dispatch); LinkGuest and
	// LinkCovered sum the linked blocks' GuestLen and Covered.
	Links       uint64
	LinkGuest   uint64
	LinkCovered uint64
}

// LinkSlots is the number of chained successors one Link record holds.
// Measured on the 12 corpus guests, no native block has more than two
// chained successors (a conditional branch's pair); the other two slots
// are headroom for indirect exits. An edge that finds every slot taken
// keeps going through the engine's dispatch loop.
const LinkSlots = 4

// NoLink is the GPC of an empty LinkSucc slot: no guest pc the stub
// loads (a zero-extended 32-bit word) equals it.
const NoLink = -1

// LinkSucc is one link: the guest pc of a chained successor block, the
// address of that block's code (entered at offset 0), and its record.
type LinkSucc struct {
	GPC   int64
	Entry uintptr
	Rec   *Link
}

// Link is one native block's link record: the fixed-layout data the
// trampoline's link stub reads to go from this block straight to a
// chained successor without returning to the caller. Records are data,
// never code: linking a block patches no instruction and costs no
// mprotect. The stub adds GuestLen and Covered to the Ctx counters and
// increments *Exec (the owner's execution counter) for every linked
// entry. Records must stay reachable from the engine for as long as any
// other record or a Ctx.Cur refers to them.
type Link struct {
	Succ [LinkSlots]LinkSucc
	// HostLen is the block's host instruction count: an exit whose
	// NextPC is below it (a RET back into the block) is not a block exit.
	HostLen  int64
	GuestLen int64
	Covered  int64
	Exec     *uint64
	// ID is the owner's index in the engine's table, copied into
	// Ctx.CurID on each link so the caller can tell which block ran last.
	ID int64
}

// Unlink empties every successor slot.
func (l *Link) Unlink() {
	for i := range l.Succ {
		l.Succ[i] = LinkSucc{GPC: NoLink}
	}
}

// Add links the exit to gpc to the block entered at entry with record
// rec. It reports false when the edge is already linked or every slot is
// taken.
func (l *Link) Add(gpc int64, entry uintptr, rec *Link) bool {
	for i := range l.Succ {
		switch l.Succ[i].GPC {
		case gpc:
			return false
		case NoLink:
			l.Succ[i] = LinkSucc{GPC: gpc, Entry: entry, Rec: rec}
			return true
		}
	}
	return false
}

// Invalidate empties the TLB (used by tests; engines keep one Memory per
// Ctx for their lifetime so they never need it).
func (c *Ctx) Invalidate() {
	for i := range c.TLB {
		c.TLB[i] = TLBEntry{PN: InvalidPN}
	}
}

// Install caches a resident page in the TLB so the next native access
// to it hits. The engine calls this after a bailed instruction touched a
// page (the interpreter step materialized it if it was a first write).
func (c *Ctx) Install(addr uint32, page *[mach.PageSize]byte) {
	if page == nil {
		return
	}
	pn := addr >> mach.PageShift
	c.TLB[pn&(tlbEntries-1)] = TLBEntry{
		PN:   pn,
		Base: uintptr(unsafe.Pointer(page)),
	}
}

// NewCtx returns a Ctx with an empty TLB.
func NewCtx() *Ctx {
	c := &Ctx{}
	c.Invalidate()
	return c
}

// Code is one block's compiled form: the emitted machine code (placed
// into executable memory by the caller) plus the per-instruction entry
// offsets the bail/re-entry protocol needs.
type Code struct {
	// Text is the position-independent machine code.
	Text []byte
	// Offsets[pc] is the byte offset within Text at which to enter the
	// block at host instruction pc: the inline code for a segment leader,
	// an out-of-line resume entry for any other pc (see the package doc).
	// The engine enters at 0, and at any pc after a bail or a RET.
	Offsets []int32
	// Bails counts instructions compiled as unconditional bails (shapes
	// the emitter does not handle natively, constant-address words that
	// straddle a page). Diagnostics only.
	Bails int
}
