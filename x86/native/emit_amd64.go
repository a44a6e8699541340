//go:build amd64

package native

import (
	"fmt"
	"unsafe"

	"dbtrules/mach"
	"dbtrules/x86"
)

// Supported reports whether this build carries the native back end.
func Supported() bool { return true }

// Register convention inside emitted code. The trampoline pins the
// virtual machine state and the native context and zeroes the four
// accumulators, which the epilogue drains; AX, CX, DX and R8-R10 are
// scratch. SP, BP, R14 (the goroutine pointer) and R15 are never
// touched, which is what lets the trampoline be a bare CALL with no
// spills (every other register is caller-saved under the Go ABI).
const (
	rAX = 0
	rCX = 1
	rDX = 2
	rBX = 3 // Memory.Reads accumulator
	rSI = 6 // cycle accumulator
	rDI = 7 // instruction-count accumulator
	r8  = 8
	r9  = 9
	r10 = 10 // host base of the probed guest page
	r11 = 11 // Memory.Writes accumulator
	// rState holds *x86.State, rCtx holds *Ctx for the block's duration.
	rState = 12
	rCtx   = 13
)

// Offsets of the State, Memory, and Ctx fields the emitted code touches.
// unsafe.Offsetof makes them track the Go structs automatically; the
// emitted code is therefore layout-correct by construction.
var (
	offR     = int32(unsafe.Offsetof(x86.State{}.R))
	offCF    = int32(unsafe.Offsetof(x86.State{}.CF))
	offZF    = int32(unsafe.Offsetof(x86.State{}.ZF))
	offSF    = int32(unsafe.Offsetof(x86.State{}.SF))
	offOF    = int32(unsafe.Offsetof(x86.State{}.OF))
	offMem   = int32(unsafe.Offsetof(x86.State{}.Mem))
	offSteps = int32(unsafe.Offsetof(x86.State{}.Steps))

	offReads  = int32(unsafe.Offsetof(mach.Memory{}.Reads))
	offWrites = int32(unsafe.Offsetof(mach.Memory{}.Writes))

	offTLB    = int32(unsafe.Offsetof(Ctx{}.TLB))
	offNextPC = int32(unsafe.Offsetof(Ctx{}.NextPC))
	offBail   = int32(unsafe.Offsetof(Ctx{}.Bail))
	offCycles = int32(unsafe.Offsetof(Ctx{}.Cycles))
	offInstrs = int32(unsafe.Offsetof(Ctx{}.Instrs))
)

func init() {
	// The TLB probe indexes entries at offset 0 with a 16-byte stride;
	// assert the layout the emitted address arithmetic assumes.
	if offTLB != 0 || unsafe.Sizeof(TLBEntry{}) != tlbEntrySize {
		panic("native: Ctx TLB layout drifted from the emitter's ABI")
	}
	if unsafe.Offsetof(TLBEntry{}.Base) != 8 {
		panic("native: TLBEntry.Base must sit at offset 8")
	}
}

func regOff(r x86.Reg) int32 { return offR + 4*int32(r) }

// asm is a minimal amd64 byte emitter: just enough encodings for the
// shapes the per-opcode emitters below produce.
type asm struct{ b []byte }

func (a *asm) raw(bs ...byte) { a.b = append(a.b, bs...) }

func (a *asm) u32(v uint32) {
	a.b = append(a.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// rexIf emits a REX prefix when any extension bit is needed. index < 0
// means no index register.
func (a *asm) rexIf(w bool, reg, index, base int) {
	r := byte(0x40)
	if w {
		r |= 8
	}
	if reg >= 8 {
		r |= 4
	}
	if index >= 8 {
		r |= 2
	}
	if base >= 8 {
		r |= 1
	}
	if r != 0x40 {
		a.raw(r)
	}
}

// modMem emits ModRM(+SIB)(+disp) for [base (+ index) + disp]. The index
// register, when present, is always pre-scaled by the caller (scale 1).
func (a *asm) modMem(reg, base, index int, disp int32) {
	rm := base & 7
	var mod byte
	switch {
	case disp == 0 && rm != 5: // rBP/r13 base needs an explicit disp
		mod = 0
	case disp >= -128 && disp <= 127:
		mod = 1
	default:
		mod = 2
	}
	if index >= 0 || rm == 4 { // rSP/r12 base forces a SIB byte
		a.raw(mod<<6 | byte(reg&7)<<3 | 4)
		idx := byte(4) // none
		if index >= 0 {
			idx = byte(index & 7)
		}
		a.raw(idx<<3 | byte(rm))
	} else {
		a.raw(mod<<6 | byte(reg&7)<<3 | byte(rm))
	}
	if mod == 1 {
		a.raw(byte(disp))
	} else if mod == 2 {
		a.u32(uint32(disp))
	}
}

// insM emits an opcode with a memory rm operand.
func (a *asm) insM(w bool, op []byte, reg, base, index int, disp int32) {
	a.rexIf(w, reg, index, base)
	a.raw(op...)
	a.modMem(reg, base, index, disp)
}

// insR emits an opcode with a register-direct rm operand.
func (a *asm) insR(w bool, op []byte, reg, rm int) {
	a.rexIf(w, reg, -1, rm)
	a.raw(op...)
	a.raw(0xC0 | byte(reg&7)<<3 | byte(rm&7))
}

// movImmR loads a 32-bit immediate into a register (zero-extending).
func (a *asm) movImmR(reg int, v uint32) {
	a.rexIf(false, 0, -1, reg)
	a.raw(0xB8 | byte(reg&7))
	a.u32(v)
}

// aluImm emits an 81/83-group op (slash selects it) with an immediate
// against a 32-bit (w false) or 64-bit register.
func (a *asm) aluImm(w bool, slash, reg int, v int32) {
	if v >= -128 && v <= 127 {
		a.insR(w, []byte{0x83}, slash, reg)
		a.raw(byte(v))
	} else {
		a.insR(w, []byte{0x81}, slash, reg)
		a.u32(uint32(v))
	}
}

func (a *asm) aluImmR(slash, reg int, v int32) { a.aluImm(false, slash, reg, v) }

// shiftImmR emits a C1-group shift by immediate on a 32-bit register.
func (a *asm) shiftImmR(slash, reg int, n uint32) {
	a.insR(false, []byte{0xC1}, slash, reg)
	a.raw(byte(n))
}

// aluRM is the r32→rm32 opcode of each two-operand ALU operation,
// indexed by x86.Op.
var aluRM = [...]byte{
	x86.ADD: 0x01, x86.ADC: 0x11, x86.SUB: 0x29, x86.SBB: 0x19,
	x86.AND: 0x21, x86.OR: 0x09, x86.XOR: 0x31, x86.CMP: 0x39,
	x86.TEST: 0x85,
}

// pcInfo is what the emitter knows about one host instruction.
type pcInfo struct {
	// leader marks the first instruction of a straight-line segment:
	// pc 0, every in-range branch target, every pc after a branch.
	leader bool
	// needBail marks a pc whose body can bail; bail is the offset of its
	// stub once emitted.
	needBail bool
	// live is the mask of State flags read after this instruction before
	// being overwritten (see flagsLiveAfter): the only ones it stores.
	// liveIn is the same on entry to it.
	live   uint8
	liveIn uint8
	// restCost and restLen are the summed cycle cost and the count of
	// the instructions from this one to the end of its segment — what a
	// leader (or a resume entry) charges and a bail stub reverses.
	restCost int32
	restLen  int32
	// body is the offset of the inline code: a leader's charge, any
	// other instruction's body.
	body int32
	bail int32
}

// emitter compiles one block.
type emitter struct {
	a    asm
	host []x86.Instr
	// info[pc] describes instruction pc; info[len].body is the
	// fall-off-the-end exit stub.
	info   []pcInfo
	epilog int32
	// fixups to instruction bodies / to per-pc bail stubs / to the
	// epilogue, each a rel32 hole at `at`.
	jfix  []fix
	bfix  []fix
	efix  []int
	pc    int
	bails int
}

type fix struct {
	at     int
	target int
}

// Compile translates a block's host instructions (with their
// per-instruction cycle costs) to position-independent amd64 code.
// Instruction shapes outside the emitter's repertoire become
// unconditional bail stubs — still correct, executed by the interpreter
// via the bail protocol — and are counted in Code.Bails.
func Compile(host []x86.Instr, costs []uint64) (*Code, error) {
	n := len(host)
	if n == 0 || n != len(costs) {
		return nil, fmt.Errorf("native: bad block shape: %d instrs, %d costs", n, len(costs))
	}
	// Sized for the common block (about 62 code bytes, one bail check and
	// one resume entry per instruction) so emission rarely regrows.
	em := &emitter{
		host: host,
		info: make([]pcInfo, n+1),
		a:    asm{b: make([]byte, 0, 64*n+64)},
		jfix: make([]fix, 0, n),
		bfix: make([]fix, 0, n),
	}
	info := em.info
	info[0].leader = true
	for pc, in := range host {
		if !in.Op.IsBranch() {
			continue
		}
		info[pc+1].leader = true
		if t := in.Target; in.Op != x86.RET && t >= 0 && int(t) < n {
			info[t].leader = true
		}
	}
	for pc := n - 1; pc >= 0; pc-- {
		cost, length := costs[pc], int32(1)
		if pc+1 < n && !info[pc+1].leader {
			cost += uint64(info[pc+1].restCost)
			length += info[pc+1].restLen
		}
		if cost > 1<<30 {
			return nil, fmt.Errorf("native: segment cost %d at pc %d too large", cost, pc)
		}
		info[pc].restCost, info[pc].restLen = int32(cost), length
	}
	flagsLiveAfter(host, info)

	offsets := make([]int32, n)
	for pc, in := range host {
		em.pc = pc
		info[pc].body = int32(len(em.a.b))
		if info[pc].leader {
			offsets[pc] = info[pc].body
			em.charge(0, pc)
		}
		if !supportedInstr(in) {
			em.bails++
			em.jmpBail()
			continue
		}
		em.instr(in)
	}
	// Fall off the end: NextPC = len(host), straight into the epilogue.
	info[n].body = int32(len(em.a.b))
	em.exitImm(int32(n))
	em.epilog = int32(len(em.a.b))
	em.epilogue()
	for pc := range host {
		if info[pc].needBail {
			info[pc].bail = int32(len(em.a.b))
			em.bailStub(pc)
		}
		if !info[pc].leader {
			// Resume entry: control arriving from outside (after a bail,
			// or a RET into the block) charges the rest of the segment
			// and joins the inline code.
			offsets[pc] = int32(len(em.a.b))
			em.charge(0, pc)
			em.jmpLabel(pc)
		}
	}
	em.patch()
	return &Code{Text: em.a.b, Offsets: offsets, Bails: em.bails}, nil
}

// supportedInstr reports whether the emitter handles the instruction
// natively. The catch-all invariant the memory helpers rely on: at most
// one guest memory access per supported instruction.
func supportedInstr(in x86.Instr) bool {
	mem := 0
	for _, o := range [2]x86.Operand{in.Src, in.Dst} {
		if o.Kind != x86.KMem {
			continue
		}
		mem++
		if o.Mem.HasIndex {
			switch o.Mem.Scale {
			case 0, 1, 2, 4, 8:
			default:
				return false
			}
		}
	}
	if mem > 1 {
		return false
	}
	switch in.Op {
	case x86.MOV, x86.MOVB, x86.MOVZBL, x86.MOVSBL, x86.LEA,
		x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR,
		x86.CMP, x86.TEST, x86.NOT, x86.NEG, x86.INC, x86.DEC,
		x86.SHL, x86.SHR, x86.SAR, x86.IMUL,
		x86.JMP, x86.JCC, x86.CALL, x86.RET, x86.SETCC,
		x86.PUSHF, x86.POPF:
		return true
	case x86.PUSH:
		return in.Dst.Kind != x86.KMem // stack write + operand read is two accesses
	case x86.POP:
		return in.Dst.Kind == x86.KReg // stack read + merge/store stays one access
	}
	return false
}

// State flag masks, for the liveness pass and saveFlags.
const (
	fCF = 1 << iota
	fZF
	fSF
	fOF
	fAll = fCF | fZF | fSF | fOF
)

// ccFlags is the set of flags State.CondHolds reads for a condition.
func ccFlags(cc x86.CC) uint8 {
	switch cc {
	case x86.O, x86.NO:
		return fOF
	case x86.B, x86.AE:
		return fCF
	case x86.E, x86.NE:
		return fZF
	case x86.BE, x86.A:
		return fCF | fZF
	case x86.S, x86.NS:
		return fSF
	case x86.L, x86.GE:
		return fSF | fOF
	case x86.LE, x86.G:
		return fZF | fSF | fOF
	}
	return fAll
}

// flagEffect returns the flags Step reads and the flags it always
// writes when executing in.
func flagEffect(in x86.Instr) (use, def uint8) {
	switch in.Op {
	case x86.ADD, x86.SUB, x86.CMP, x86.NEG, x86.AND, x86.OR, x86.XOR,
		x86.TEST, x86.IMUL, x86.POPF:
		return 0, fAll
	case x86.ADC, x86.SBB:
		return fCF, fAll
	case x86.INC, x86.DEC:
		return 0, fZF | fSF | fOF // CF preserved
	case x86.SHL, x86.SHR, x86.SAR:
		if in.Src.Imm&31 == 0 {
			return 0, 0 // a zero count is a pure no-op
		}
		return 0, fAll
	case x86.JCC, x86.SETCC:
		return ccFlags(in.CC), 0
	case x86.PUSHF:
		return fAll, 0
	}
	return 0, 0
}

// flagsLiveAfter fills info[pc].live, the flags live after each
// instruction, in one backward pass. Everything outside the pass's view
// reads all four: the block exits (which is what keeps x86.State equal
// to Step's at every exit), RET's dynamic target, backward targets, and
// instructions the interpreter always executes. An instruction stores
// only its live flags, so State holds the correct value of every flag
// live into an instruction whenever that instruction starts — which is
// all the interpreter needs when a bail hands it one.
func flagsLiveAfter(host []x86.Instr, info []pcInfo) {
	n := len(host)
	info[n].liveIn = fAll // the fall-off-the-end exit
	for pc := n - 1; pc >= 0; pc-- {
		in := host[pc]
		target := uint8(fAll)
		if t := int(in.Target); t > pc && t < n {
			target = info[t].liveIn
		}
		var live uint8
		switch in.Op {
		case x86.JMP, x86.CALL:
			live = target
		case x86.JCC:
			live = target | info[pc+1].liveIn
		case x86.RET:
			live = fAll
		default:
			live = info[pc+1].liveIn
		}
		info[pc].live = live
		if !supportedInstr(in) {
			info[pc].liveIn = fAll
			continue
		}
		use, def := flagEffect(in)
		info[pc].liveIn = live&^def | use
	}
}

// charge adds (slash 0) the cost and count of the instructions from pc
// to the end of its segment to the accumulators; slash 5 subtracts them
// again.
func (em *emitter) charge(slash, pc int) {
	em.a.aluImm(true, slash, rSI, em.info[pc].restCost)
	em.a.aluImm(true, slash, rDI, em.info[pc].restLen)
}

// bailStub reverses the charge for the unexecuted rest of the segment
// (the bailed instruction included, so the interpreter side charges it
// exactly once), records the bail, and exits.
func (em *emitter) bailStub(pc int) {
	em.charge(5, pc)
	em.exitImm(int32(pc))
	em.a.insM(false, []byte{0xC7}, 0, rCtx, -1, offBail)
	em.a.u32(1)
	em.jmpEpilogue()
}

// epilogue drains the accumulators into Ctx, Steps and the Memory access
// counters, and returns to the trampoline.
func (em *emitter) epilogue() {
	a := &em.a
	a.insM(true, []byte{0x01}, rSI, rCtx, -1, offCycles)
	a.insM(true, []byte{0x01}, rDI, rCtx, -1, offInstrs)
	a.insM(true, []byte{0x01}, rDI, rState, -1, offSteps)
	a.insM(true, []byte{0x8B}, rAX, rState, -1, offMem)
	a.insM(true, []byte{0x01}, rBX, rAX, -1, offReads)
	a.insM(true, []byte{0x01}, r11, rAX, -1, offWrites)
	a.raw(0xC3)
}

// exitImm stores a static next-pc and falls through toward the epilogue
// (which is emitted immediately after the last exit stub) or jumps to it.
func (em *emitter) exitImm(target int32) {
	em.a.insM(true, []byte{0xC7}, 0, rCtx, -1, offNextPC)
	em.a.u32(uint32(target)) // sign-extended to 64 bits, matching int(int32)
}

func (em *emitter) jmpEpilogue() {
	em.a.raw(0xE9)
	em.efix = append(em.efix, len(em.a.b))
	em.a.u32(0)
}

func (em *emitter) jmpLabel(target int) {
	em.a.raw(0xE9)
	em.jfix = append(em.jfix, fix{at: len(em.a.b), target: target})
	em.a.u32(0)
}

// jccLabel emits a host conditional jump (host cc byte, e.g. 0x85 for
// jne) to an instruction label.
func (em *emitter) jccLabel(hostCC byte, target int) {
	em.a.raw(0x0F, 0x80|hostCC&0x0F)
	em.jfix = append(em.jfix, fix{at: len(em.a.b), target: target})
	em.a.u32(0)
}

// jccBail emits a host conditional jump to the current instruction's
// bail stub.
func (em *emitter) jccBail(hostCC byte) {
	em.info[em.pc].needBail = true
	em.a.raw(0x0F, 0x80|hostCC&0x0F)
	em.bfix = append(em.bfix, fix{at: len(em.a.b), target: em.pc})
	em.a.u32(0)
}

func (em *emitter) jmpBail() {
	em.info[em.pc].needBail = true
	em.a.raw(0xE9)
	em.bfix = append(em.bfix, fix{at: len(em.a.b), target: em.pc})
	em.a.u32(0)
}

// localJcc emits a conditional jump whose target is patched to the
// current offset by patchLocal — for short skips within one body.
func (em *emitter) localJcc(hostCC byte) int {
	em.a.raw(0x0F, 0x80|hostCC&0x0F)
	at := len(em.a.b)
	em.a.u32(0)
	return at
}

func (em *emitter) patchLocal(at int) {
	rel := int32(len(em.a.b) - (at + 4))
	putRel(em.a.b, at, rel)
}

func putRel(b []byte, at int, rel int32) {
	b[at] = byte(rel)
	b[at+1] = byte(rel >> 8)
	b[at+2] = byte(rel >> 16)
	b[at+3] = byte(rel >> 24)
}

func (em *emitter) patch() {
	for _, f := range em.jfix {
		putRel(em.a.b, f.at, em.info[f.target].body-int32(f.at+4))
	}
	for _, f := range em.bfix {
		putRel(em.a.b, f.at, em.info[f.target].bail-int32(f.at+4))
	}
	for _, at := range em.efix {
		putRel(em.a.b, at, em.epilog-int32(at+4))
	}
}

// ---- guest state access helpers ----

// loadGuestReg loads State.R[gr] into a host register.
func (em *emitter) loadGuestReg(gr x86.Reg, hr int) {
	em.a.insM(false, []byte{0x8B}, hr, rState, -1, regOff(gr))
}

// storeGuestReg stores a host register into State.R[gr].
func (em *emitter) storeGuestReg(hr int, gr x86.Reg) {
	em.a.insM(false, []byte{0x89}, hr, rState, -1, regOff(gr))
}

// emitEA computes a MemRef's effective address into edx (32-bit
// wrapping, exactly State.EA), using r8 as scratch.
func (em *emitter) emitEA(m x86.MemRef) {
	a := &em.a
	if m.HasBase {
		em.loadGuestReg(m.Base, rDX)
		if m.Disp != 0 {
			a.aluImmR(0, rDX, m.Disp) // addl $disp, %edx
		}
	} else {
		a.movImmR(rDX, uint32(m.Disp))
	}
	if m.HasIndex && m.Scale != 0 {
		em.loadGuestReg(m.Index, r8)
		switch m.Scale {
		case 2:
			a.shiftImmR(4, r8, 1)
		case 4:
			a.shiftImmR(4, r8, 2)
		case 8:
			a.shiftImmR(4, r8, 3)
		}
		a.insR(false, []byte{0x01}, r8, rDX) // addl %r8d, %edx
	}
}

// loc is a guest memory location whose page is in the software TLB:
// the host address [r10 + index + disp] (index < 0: none).
type loc struct {
	index int
	disp  int32
}

// locate resolves a memory operand to its host location, bailing to the
// interpreter on a TLB miss or a page-straddling word access. Every
// guest access goes through here or through probe (the stack shapes,
// whose address is already in edx). Clobbers edx, r8, r9.
func (em *emitter) locate(m x86.MemRef, width int) loc {
	if m.HasBase || m.HasIndex && m.Scale != 0 {
		em.emitEA(m)
		return em.probe(width)
	}
	// An absolute address: page number, TLB slot and in-page offset are
	// known now, so only the tag compare is left for run time.
	a := &em.a
	addr := uint32(m.Disp)
	l := loc{index: -1, disp: int32(addr & (mach.PageSize - 1))}
	if width == 4 && l.disp > mach.PageSize-4 {
		// The word straddles its page: always the interpreter's. What the
		// caller emits after this is unreachable.
		em.bails++
		em.jmpBail()
		return l
	}
	pn := addr >> mach.PageShift
	slot := offTLB + int32(pn&(tlbEntries-1))*tlbEntrySize
	a.insM(false, []byte{0x81}, 7, rCtx, -1, slot) // cmpl $pn, slot.PN
	a.u32(pn)
	em.jccBail(0x05) // jne: TLB miss
	a.insM(true, []byte{0x8B}, r10, rCtx, -1, slot+8)
	return l
}

// probe is locate for the address in edx, which it preserves.
func (em *emitter) probe(width int) loc {
	a := &em.a
	a.insR(false, []byte{0x89}, rDX, r8) // mov %edx, %r8d
	a.shiftImmR(5, r8, uint32(mach.PageShift))
	a.insR(false, []byte{0x89}, r8, r9)
	a.aluImmR(4, r9, tlbEntries-1) // andl
	a.shiftImmR(4, r9, 4)          // slot byte offset (×16)
	a.insM(false, []byte{0x39}, r8, rCtx, r9, offTLB)
	em.jccBail(0x05) // jne: TLB miss
	a.insM(true, []byte{0x8B}, r10, rCtx, r9, offTLB+8)
	a.insR(false, []byte{0x89}, rDX, r9)
	a.aluImmR(4, r9, mach.PageSize-1)
	if width == 4 {
		a.aluImmR(7, r9, mach.PageSize-4) // cmpl
		em.jccBail(0x07)                  // ja: word straddles the page
	}
	return loc{index: r9}
}

// The four access helpers below run after every bail check of their
// instruction. Each counts its bytes into the Reads/Writes accumulator,
// mirroring the access accounting of Load8/Read32/Store8/Write32, which
// clobbers the host flags: flag-producing code comes after a load and
// saves its flags before a store.

func (em *emitter) loadMem32(hr int, l loc) {
	em.a.aluImm(true, 0, rBX, 4)
	em.a.insM(false, []byte{0x8B}, hr, r10, l.index, l.disp)
}

func (em *emitter) storeMem32(hr int, l loc) {
	em.a.aluImm(true, 0, r11, 4)
	em.a.insM(false, []byte{0x89}, hr, r10, l.index, l.disp)
}

// loadMem8 zero-extends the byte at l into hr.
func (em *emitter) loadMem8(hr int, l loc) {
	em.a.aluImm(true, 0, rBX, 1)
	em.a.insM(false, []byte{0x0F, 0xB6}, hr, r10, l.index, l.disp)
}

// storeMem8 stores al at l.
func (em *emitter) storeMem8(l loc) {
	em.a.aluImm(true, 0, r11, 1)
	em.a.insM(false, []byte{0x88}, rAX, r10, l.index, l.disp)
}

// loadVal loads a 32-bit operand value (State.read semantics) into hr.
// KMem operands go through the TLB and may bail.
func (em *emitter) loadVal(o x86.Operand, hr int) {
	switch o.Kind {
	case x86.KReg:
		em.loadGuestReg(o.Reg, hr)
	case x86.KReg8:
		em.a.insM(false, []byte{0x0F, 0xB6}, hr, rState, -1, regOff(o.Reg))
	case x86.KImm:
		em.a.movImmR(hr, o.Imm)
	case x86.KMem:
		em.loadMem32(hr, em.locate(o.Mem, 4))
	}
}

// loadByteVal loads a byte operand value (State.readByte semantics,
// zero-extended) into hr.
func (em *emitter) loadByteVal(o x86.Operand, hr int) {
	switch o.Kind {
	case x86.KReg8:
		em.a.insM(false, []byte{0x0F, 0xB6}, hr, rState, -1, regOff(o.Reg))
	case x86.KImm:
		em.a.movImmR(hr, o.Imm&0xff)
	case x86.KMem:
		em.loadMem8(hr, em.locate(o.Mem, 1))
	}
}

// saveFlags stores the host EFLAGS produced by the last flag-writing
// instruction into the State flag bytes named by mask — those of them
// that are live after the current instruction.
func (em *emitter) saveFlags(mask uint8) {
	mask &= em.info[em.pc].live
	if mask&fCF != 0 {
		em.a.insM(false, []byte{0x0F, 0x92}, 0, rState, -1, offCF) // setb
	}
	if mask&fZF != 0 {
		em.a.insM(false, []byte{0x0F, 0x94}, 0, rState, -1, offZF) // setz
	}
	if mask&fSF != 0 {
		em.a.insM(false, []byte{0x0F, 0x98}, 0, rState, -1, offSF) // sets
	}
	if mask&fOF != 0 {
		em.a.insM(false, []byte{0x0F, 0x90}, 0, rState, -1, offOF) // seto
	}
}

// clearOF stores false into State.OF when it is live (the modeled
// shifts always clear OF, diverging from hardware's count==1 behaviour).
func (em *emitter) clearOF() {
	if em.info[em.pc].live&fOF != 0 {
		em.a.insM(false, []byte{0xC6}, 0, rState, -1, offOF)
		em.a.raw(0)
	}
}

// restoreCF loads State.CF into the host carry flag (for adc/sbb).
// Clobbers dl and the other host flags.
func (em *emitter) restoreCF() {
	em.a.insM(false, []byte{0x8A}, rDX, rState, -1, offCF) // movb CF, %dl
	em.a.insR(false, []byte{0x80}, 0, rDX)                 // addb $0xff, %dl
	em.a.raw(0xFF)                                         // CF := (dl == 1)
}

// cond materializes an x86.CC over the State flag bytes into %al as 0/1
// (exactly State.CondHolds). Flag bytes are canonical 0/1, so byte
// or/xor arithmetic evaluates the predicates without reconstructing
// host EFLAGS.
func (em *emitter) cond(cc x86.CC) {
	a := &em.a
	movb := func(off int32) { a.insM(false, []byte{0x8A}, rAX, rState, -1, off) }
	orb := func(off int32) { a.insM(false, []byte{0x0A}, rAX, rState, -1, off) }
	xorb := func(off int32) { a.insM(false, []byte{0x32}, rAX, rState, -1, off) }
	not := func() { a.raw(0x34, 0x01) } // xorb $1, %al
	switch cc {
	case x86.O:
		movb(offOF)
	case x86.NO:
		movb(offOF)
		not()
	case x86.B:
		movb(offCF)
	case x86.AE:
		movb(offCF)
		not()
	case x86.E:
		movb(offZF)
	case x86.NE:
		movb(offZF)
		not()
	case x86.BE:
		movb(offCF)
		orb(offZF)
	case x86.A:
		movb(offCF)
		orb(offZF)
		not()
	case x86.S:
		movb(offSF)
	case x86.NS:
		movb(offSF)
		not()
	case x86.L:
		movb(offSF)
		xorb(offOF)
	case x86.GE:
		movb(offSF)
		xorb(offOF)
		not()
	case x86.LE:
		movb(offSF)
		xorb(offOF)
		orb(offZF)
	case x86.G:
		movb(offSF)
		xorb(offOF)
		orb(offZF)
		not()
	}
}

// gotoTarget transfers control to a static branch target: a direct jump
// for in-block targets, a NextPC exit otherwise (the dispatch loop's
// bounds check decides what happens to it, exactly like Step returning
// the index).
func (em *emitter) gotoTarget(t int32) {
	if t >= 0 && int(t) < len(em.host) {
		em.jmpLabel(int(t))
		return
	}
	em.exitImm(t)
	em.jmpEpilogue()
}

// pushVal emits the stack push of the value in eax: ESP -= 4 and a
// 32-bit store, probing before any state moves.
func (em *emitter) pushVal() {
	em.loadGuestReg(x86.ESP, rDX)
	em.a.aluImmR(5, rDX, 4) // subl $4, %edx
	l := em.probe(4)
	em.storeGuestReg(rDX, x86.ESP)
	em.storeMem32(rAX, l)
}

// popVal emits the stack pop into eax: a probed 32-bit load, then
// ESP += 4.
func (em *emitter) popVal() {
	em.loadGuestReg(x86.ESP, rDX)
	em.loadMem32(rAX, em.probe(4))
	em.a.insM(false, []byte{0x83}, 0, rState, -1, regOff(x86.ESP))
	em.a.raw(4) // addl $4, ESP slot
}

// instr emits one instruction body. The per-body contract: every bail
// check precedes every guest-visible mutation (registers, flags, memory,
// access counts), so a bailed instruction can be re-executed whole by
// the interpreter.
func (em *emitter) instr(in x86.Instr) {
	a := &em.a
	switch in.Op {
	case x86.MOV, x86.MOVZBL, x86.MOVSBL:
		if in.Op == x86.MOV {
			em.loadVal(in.Src, rAX)
		} else {
			em.loadByteVal(in.Src, rAX)
			if in.Op == x86.MOVSBL {
				a.insR(false, []byte{0x0F, 0xBE}, rAX, rAX) // movsbl %al, %eax
			}
		}
		switch in.Dst.Kind {
		case x86.KReg:
			em.storeGuestReg(rAX, in.Dst.Reg)
		case x86.KReg8:
			a.insM(false, []byte{0x88}, rAX, rState, -1, regOff(in.Dst.Reg))
		case x86.KMem:
			em.storeMem32(rAX, em.locate(in.Dst.Mem, 4))
		}

	case x86.MOVB:
		em.loadByteVal(in.Src, rAX)
		if in.Dst.Kind == x86.KReg8 {
			a.insM(false, []byte{0x88}, rAX, rState, -1, regOff(in.Dst.Reg))
		} else { // KMem, by CheckInstr
			em.storeMem8(em.locate(in.Dst.Mem, 1))
		}

	case x86.LEA:
		em.emitEA(in.Src.Mem)
		switch in.Dst.Kind {
		case x86.KReg:
			em.storeGuestReg(rDX, in.Dst.Reg)
		case x86.KReg8:
			a.insM(false, []byte{0x88}, rDX, rState, -1, regOff(in.Dst.Reg))
		case x86.KMem:
			// Locating the destination clobbers edx; stash the value in
			// eax first.
			a.insR(false, []byte{0x89}, rDX, rAX)
			em.storeMem32(rAX, em.locate(in.Dst.Mem, 4))
		}

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR,
		x86.CMP, x86.TEST:
		em.alu(in)

	case x86.NOT:
		em.rmw(in, 0, 0xF7, 2, 0)
	case x86.NEG:
		em.rmw(in, fAll, 0xF7, 3, 0)
	case x86.INC:
		// Host inc/dec preserve CF exactly like the model.
		em.rmw(in, fZF|fSF|fOF, 0xFF, 0, 0)
	case x86.DEC:
		em.rmw(in, fZF|fSF|fOF, 0xFF, 1, 0)

	case x86.SHL, x86.SHR, x86.SAR:
		n := in.Src.Imm & 31
		if n == 0 {
			// Modeled as a pure no-op: no write, no flags (count ≠ 0 is
			// the only flag-writing case), only the segment's charge.
			return
		}
		slash := 4 // SHL
		switch in.Op {
		case x86.SHR:
			slash = 5
		case x86.SAR:
			slash = 7
		}
		// Save CF/ZF/SF from the host shift, then pin OF=false (the
		// model clears it for every nonzero count).
		em.rmw(in, fCF|fZF|fSF, 0xC1, slash, byte(n))
		em.clearOF()

	case x86.IMUL:
		em.imul(in)

	case x86.JMP:
		em.gotoTarget(in.Target)

	case x86.JCC:
		em.cond(in.CC)
		a.insR(false, []byte{0x84}, rAX, rAX) // testb %al, %al
		if t := in.Target; t >= 0 && int(t) < len(em.host) {
			em.jccLabel(0x05, int(t)) // jnz label
		} else {
			skip := em.localJcc(0x04) // jz past the exit
			em.exitImm(t)
			em.jmpEpilogue()
			em.patchLocal(skip)
		}

	case x86.CALL:
		a.movImmR(rAX, uint32(em.pc+1))
		em.pushVal()
		em.gotoTarget(in.Target)

	case x86.RET:
		em.popVal()
		// NextPC = zero-extended loaded word, exactly int(uint32).
		a.insM(true, []byte{0x89}, rAX, rCtx, -1, offNextPC)
		em.jmpEpilogue()

	case x86.PUSH:
		em.loadVal(in.Dst, rAX) // reg/imm/reg8 by supportedInstr
		em.pushVal()

	case x86.POP:
		em.popVal()
		em.storeGuestReg(rAX, in.Dst.Reg) // after ESP += 4: pop %esp loads the value

	case x86.SETCC:
		if in.Dst.Kind == x86.KReg8 {
			em.cond(in.CC)
			a.insM(false, []byte{0x88}, rAX, rState, -1, regOff(in.Dst.Reg))
		} else { // KMem, by CheckInstr
			l := em.locate(in.Dst.Mem, 1)
			em.cond(in.CC)
			em.storeMem8(l)
		}

	case x86.PUSHF:
		// Build the EFLAGS word bit by bit from the flag bytes.
		a.insM(false, []byte{0x0F, 0xB6}, rAX, rState, -1, offCF)
		for _, f := range [3]struct {
			off   int32
			shift uint32
		}{{offZF, 6}, {offSF, 7}, {offOF, 11}} {
			a.insM(false, []byte{0x0F, 0xB6}, rCX, rState, -1, f.off)
			a.shiftImmR(4, rCX, f.shift)
			a.insR(false, []byte{0x01}, rCX, rAX) // orl would also do; add is exact on disjoint bits
		}
		em.pushVal()

	case x86.POPF:
		em.popVal()
		for _, f := range [4]struct {
			flag  uint8
			off   int32
			shift uint32
		}{{fCF, offCF, 0}, {fZF, offZF, 6}, {fSF, offSF, 7}, {fOF, offOF, 11}} {
			if em.info[em.pc].live&f.flag == 0 {
				continue
			}
			a.insR(false, []byte{0x89}, rAX, rCX)
			if f.shift != 0 {
				a.shiftImmR(5, rCX, f.shift)
			}
			a.aluImmR(4, rCX, 1) // andl $1, %ecx
			a.insM(false, []byte{0x88}, rCX, rState, -1, f.off)
		}
	}
}

// alu emits the two-operand ALU group. CMP and TEST skip the writeback.
func (em *emitter) alu(in x86.Instr) {
	a := &em.a
	op := aluRM[in.Op]
	writeback := in.Op != x86.CMP && in.Op != x86.TEST
	carry := in.Op == x86.ADC || in.Op == x86.SBB
	em.loadVal(in.Src, rCX)
	switch {
	case in.Dst.Kind == x86.KReg:
		if carry {
			em.restoreCF()
		}
		a.insM(false, []byte{op}, rCX, rState, -1, regOff(in.Dst.Reg))
		em.saveFlags(fAll)
	case in.Dst.Kind == x86.KMem:
		l := em.locate(in.Dst.Mem, 4)
		em.loadMem32(rAX, l)
		if carry {
			em.restoreCF()
		}
		a.insR(false, []byte{op}, rCX, rAX)
		em.saveFlags(fAll)
		if writeback {
			em.storeMem32(rAX, l)
		}
	default: // KReg8 (zero-extended RMW) or KImm dst (cmp/test only)
		em.loadVal(in.Dst, rAX)
		if carry {
			em.restoreCF()
		}
		a.insR(false, []byte{op}, rCX, rAX)
		em.saveFlags(fAll)
		if writeback && in.Dst.Kind == x86.KReg8 {
			a.insM(false, []byte{0x88}, rAX, rState, -1, regOff(in.Dst.Reg))
		}
	}
}

// rmw emits a one-operand read-modify-write: the F7/FF-group unary op
// (imm8 0) or the C1-group shift by imm8 selected by opcode and slash,
// saving the flags in mask. A register destination is operated on in
// its State slot; the other shapes go through eax.
func (em *emitter) rmw(in x86.Instr, mask uint8, opcode byte, slash int, imm8 byte) {
	a := &em.a
	op := func(inSlot bool) {
		if inSlot {
			a.insM(false, []byte{opcode}, slash, rState, -1, regOff(in.Dst.Reg))
		} else {
			a.insR(false, []byte{opcode}, slash, rAX)
		}
		if imm8 != 0 {
			a.raw(imm8)
		}
		em.saveFlags(mask)
	}
	switch in.Dst.Kind {
	case x86.KReg:
		op(true)
	case x86.KMem:
		l := em.locate(in.Dst.Mem, 4)
		em.loadMem32(rAX, l)
		op(false)
		em.storeMem32(rAX, l)
	case x86.KReg8:
		a.insM(false, []byte{0x0F, 0xB6}, rAX, rState, -1, regOff(in.Dst.Reg))
		op(false)
		a.insM(false, []byte{0x88}, rAX, rState, -1, regOff(in.Dst.Reg))
	}
}

// imul emits the two-operand signed multiply: CF=OF=overflow plus SF/ZF
// from the result (the modeled divergence from hardware, which leaves
// SF/ZF undefined).
func (em *emitter) imul(in x86.Instr) {
	a := &em.a
	var l loc
	switch in.Dst.Kind {
	case x86.KReg:
		em.loadGuestReg(in.Dst.Reg, rAX)
	case x86.KMem:
		l = em.locate(in.Dst.Mem, 4)
		em.loadMem32(rAX, l)
	case x86.KReg8:
		a.insM(false, []byte{0x0F, 0xB6}, rAX, rState, -1, regOff(in.Dst.Reg))
	}
	em.loadVal(in.Src, rCX) // reg/imm/reg8: safe after the dst probe
	a.insR(false, []byte{0x0F, 0xAF}, rAX, rCX)
	em.saveFlags(fCF | fOF)
	if em.info[em.pc].live&(fZF|fSF) != 0 {
		a.insR(false, []byte{0x85}, rAX, rAX) // testl %eax, %eax
		em.saveFlags(fZF | fSF)
	}
	switch in.Dst.Kind {
	case x86.KReg:
		em.storeGuestReg(rAX, in.Dst.Reg)
	case x86.KMem:
		em.storeMem32(rAX, l)
	case x86.KReg8:
		a.insM(false, []byte{0x88}, rAX, rState, -1, regOff(in.Dst.Reg))
	}
}
