//go:build amd64

package native_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dbtrules/dbt/jitbuf"
	"dbtrules/mach"
	"dbtrules/x86"
	"dbtrules/x86/native"
)

// testBuf holds the one block under test; place resets it, so no two
// placed blocks are ever live together.
var testBuf = jitbuf.New()

func place(t *testing.T, label string, code *native.Code) uintptr {
	t.Helper()
	testBuf.Reset()
	base, err := testBuf.Place(code.Text)
	if err != nil {
		t.Fatalf("%s: Place: %v", label, err)
	}
	return base
}

// testCosts gives every pc a different-looking cost so a charge or a
// reversal that covers the wrong range shows up in the cycle total.
func testCosts(n int) []uint64 {
	costs := make([]uint64, n)
	for i := range costs {
		costs[i] = uint64(1 + i%3 + 5*(i%7))
	}
	return costs
}

// result is what one execution of a block leaves outside the State: the
// exit pc, the cycle-model totals, and how many instructions bailed.
type result struct {
	pc             int
	cycles, instrs uint64
	bails          int
	ok             bool // false: step budget exhausted
}

const stepBudget = 1 << 16

// runStep is the reference: the Step switch from pc until control leaves
// the block, charging each instruction's cost.
func runStep(host []x86.Instr, costs []uint64, st *x86.State, pc int) result {
	var res result
	for pc >= 0 && pc < len(host) {
		if res.instrs >= stepBudget {
			res.pc = pc
			return res
		}
		res.cycles += costs[pc]
		res.instrs++
		pc = st.Step(host[pc], pc)
	}
	res.pc, res.ok = pc, true
	return res
}

// runNative executes compiled code the way the engine's native tier
// does: enter at pc, interpret bailed instructions through Step (charging
// them on this side, and with warm set installing the pages they touched
// in the TLB), re-enter, until control leaves the block.
func runNative(t *testing.T, host []x86.Instr, costs []uint64, code *native.Code, base uintptr,
	st *x86.State, ctx *native.Ctx, pc int, warm bool) result {
	t.Helper()
	var res result
	ctx.Cycles, ctx.Instrs = 0, 0
	for pc >= 0 && pc < len(host) {
		if ctx.Instrs+res.instrs > stepBudget {
			t.Fatalf("native run exceeded step budget at pc %d", pc)
		}
		ctx.Bail = 0
		native.Enter(base+uintptr(code.Offsets[pc]), st, ctx)
		pc = int(ctx.NextPC)
		if ctx.Bail == 0 {
			continue
		}
		res.bails++
		in := host[pc]
		var touched [3]uint32
		n := 0
		if in.Src.Kind == x86.KMem {
			touched[n] = st.EA(in.Src.Mem)
			n++
		}
		if in.Dst.Kind == x86.KMem {
			touched[n] = st.EA(in.Dst.Mem)
			n++
		}
		switch in.Op {
		case x86.PUSH, x86.CALL, x86.PUSHF:
			touched[n] = st.R[x86.ESP] - 4
			n++
		case x86.POP, x86.RET, x86.POPF:
			touched[n] = st.R[x86.ESP]
			n++
		}
		res.cycles += costs[pc]
		res.instrs++
		pc = st.Step(in, pc)
		for i := 0; warm && i < n; i++ {
			ctx.Install(touched[i], st.Mem.PageBase(touched[i]))
		}
	}
	res.pc, res.ok = pc, true
	res.cycles += ctx.Cycles
	res.instrs += ctx.Instrs
	return res
}

// block is one compiled and placed program.
type block struct {
	host  []x86.Instr
	costs []uint64
	code  *native.Code
	base  uintptr
}

func compileBlock(t *testing.T, label string, host []x86.Instr) block {
	t.Helper()
	if err := x86.CheckCode(host); err != nil {
		t.Fatalf("%s: generated invalid code: %v", label, err)
	}
	costs := testCosts(len(host))
	code, err := native.Compile(host, costs)
	if err != nil {
		t.Fatalf("%s: Compile: %v", label, err)
	}
	if len(code.Offsets) != len(host) {
		t.Fatalf("%s: %d entry offsets for %d instructions", label, len(code.Offsets), len(host))
	}
	return block{host, costs, code, place(t, label, code)}
}

// checkFrom is the emitter's differential gate: from one prepared state
// and one pc, the Step switch and the native code (with a cold TLB,
// warmed by its bails or never) must agree on the exit pc, every
// register and flag, Steps, memory contents, the Reads/Writes access
// counters, and the cycle and instruction totals. It reports whether the
// reference run terminated.
func checkFrom(t *testing.T, label string, b block, prepared *x86.State, pc int, warm bool) bool {
	t.Helper()
	// Clone resets the access counters; Steps restart with them.
	ref, got := prepared.Clone(), prepared.Clone()
	ref.Steps, got.Steps = 0, 0
	want := runStep(b.host, b.costs, ref, pc)
	if !want.ok {
		return false
	}
	ctx := native.NewCtx()
	have := runNative(t, b.host, b.costs, b.code, b.base, got, ctx, pc, warm)

	if have.pc != want.pc {
		t.Fatalf("%s: native exited at pc %d, Step at %d", label, have.pc, want.pc)
	}
	if got.R != ref.R {
		t.Fatalf("%s: registers diverge\nnative: %v\nstep:   %v", label, got.R, ref.R)
	}
	if got.CF != ref.CF || got.ZF != ref.ZF || got.SF != ref.SF || got.OF != ref.OF {
		t.Fatalf("%s: flags diverge\nnative: CF=%v ZF=%v SF=%v OF=%v\nstep:   CF=%v ZF=%v SF=%v OF=%v",
			label, got.CF, got.ZF, got.SF, got.OF, ref.CF, ref.ZF, ref.SF, ref.OF)
	}
	if got.Steps != ref.Steps {
		t.Fatalf("%s: Steps %d vs %d", label, got.Steps, ref.Steps)
	}
	if got.Mem.Reads != ref.Mem.Reads || got.Mem.Writes != ref.Mem.Writes {
		t.Fatalf("%s: access counters diverge: native %d/%d, step %d/%d",
			label, got.Mem.Reads, got.Mem.Writes, ref.Mem.Reads, ref.Mem.Writes)
	}
	if !got.Mem.Equal(ref.Mem) {
		t.Fatalf("%s: memory diverges", label)
	}
	// Every executed instruction is charged exactly once, natively (Ctx)
	// or by the interpreter side of a bail.
	if have.cycles != want.cycles || have.instrs != want.instrs {
		t.Fatalf("%s: charged %d cycles / %d instrs over %d bails, Step %d / %d",
			label, have.cycles, have.instrs, have.bails, want.cycles, want.instrs)
	}
	return true
}

// checkNativeMatchesStep runs checkFrom over one program three ways:
// from pc 0 with the TLB warming up; from pc 0 with the TLB never
// installed, so every memory instruction bails and reverses the rest of
// its segment; and entering at Code.Offsets[pc] for every pc, from the
// state Step leaves on first reaching that pc (the seeded state when it
// never does) — every pc is a re-entry point of the bail protocol.
func checkNativeMatchesStep(t *testing.T, label string, host []x86.Instr, seedState func(*x86.State)) bool {
	t.Helper()
	b := compileBlock(t, label, host)
	seeded := x86.NewState()
	seedState(seeded)
	if !checkFrom(t, label+" warm", b, seeded, 0, true) {
		return false
	}
	checkFrom(t, label+" always-bail", b, seeded, 0, false)
	for pc := range host {
		prepared := seeded.Clone()
		at := 0
		for n := 0; at != pc && at >= 0 && at < len(host) && n < stepBudget; n++ {
			at = prepared.Step(host[at], at)
		}
		if at != pc {
			prepared = seeded
		}
		checkFrom(t, fmt.Sprintf("%s enter@%d", label, pc), b, prepared, pc, true)
	}
	return true
}

// Absolute test addresses: dataPage is the page seedRegs populates;
// aliasPage maps to the same TLB slot (64 direct-mapped entries), so
// accesses alternating between the two evict each other; the last three
// bytes of dataPage are where a word access straddles into the next page.
const (
	dataPage  = 0x2000
	aliasPage = dataPage + 64*mach.PageSize
)

func seedRegs(r *rand.Rand) func(*x86.State) {
	regs := [8]uint32{}
	for i := range regs {
		switch r.Intn(4) {
		case 0:
			regs[i] = dataPage + uint32(r.Intn(64))*4 // warmable data page
		case 1:
			regs[i] = uint32(r.Intn(16)) // small
		default:
			regs[i] = r.Uint32()
		}
	}
	regs[x86.ESP] = 0x8000 + uint32(r.Intn(16))*4
	flags := r.Intn(16)
	return func(st *x86.State) {
		st.R = regs
		st.CF, st.ZF, st.SF, st.OF = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
		// Pre-populate the data pages so loads see real bytes.
		for _, page := range [2]uint32{dataPage, aliasPage} {
			for a := page; a < page+0x100; a += 4 {
				st.Mem.Write32(a, a*2654435761)
			}
			st.Mem.Write32(page+mach.PageSize-4, page^0x5a5a5a5a)
		}
		st.Mem.Reads, st.Mem.Writes = 0, 0
	}
}

func genMem(r *rand.Rand) x86.MemRef {
	m := x86.MemRef{}
	switch r.Intn(6) {
	case 0: // absolute into the data page
		m.Disp = int32(dataPage + r.Intn(60)*4)
	case 1: // absolute into the page sharing its TLB slot
		m.Disp = int32(aliasPage + r.Intn(60)*4)
	case 2: // absolute, a word here straddles the page end
		m.Disp = int32(dataPage + mach.PageSize - 1 - r.Intn(3))
	case 3:
		m.HasBase = true
		m.Base = x86.Reg(r.Intn(8))
		m.Disp = int32(r.Intn(32) - 8)
	default:
		m.HasBase = true
		m.Base = x86.Reg(r.Intn(8))
		m.HasIndex = true
		m.Index = x86.Reg(r.Intn(8))
		m.Scale = []uint8{1, 2, 4, 8}[r.Intn(4)]
		m.Disp = int32(r.Intn(16))
	}
	return m
}

func genSrc(r *rand.Rand) x86.Operand {
	switch r.Intn(4) {
	case 0:
		return x86.RegOp(x86.Reg(r.Intn(8)))
	case 1:
		return x86.ImmOp(r.Uint32())
	case 2:
		return x86.MemOp(genMem(r))
	default:
		return x86.Reg8Op(x86.Reg(r.Intn(4)))
	}
}

func genRegOrMemDst(r *rand.Rand) x86.Operand {
	if r.Intn(3) == 0 {
		return x86.MemOp(genMem(r))
	}
	return x86.RegOp(x86.Reg(r.Intn(8)))
}

var ccs = []x86.CC{x86.O, x86.NO, x86.B, x86.AE, x86.E, x86.NE, x86.BE,
	x86.A, x86.S, x86.NS, x86.L, x86.GE, x86.LE, x86.G}

// genProgram builds a random valid program with forward-only control
// flow (guaranteed termination) over every opcode the model has.
func genProgram(r *rand.Rand, n int) []x86.Instr {
	host := make([]x86.Instr, 0, n)
	for pc := 0; pc < n; pc++ {
		var in x86.Instr
		switch r.Intn(20) {
		case 0:
			in = x86.Instr{Op: x86.MOV, Src: genSrc(r), Dst: genRegOrMemDst(r)}
			if in.Src.Kind == x86.KMem && in.Dst.Kind == x86.KMem {
				in.Dst = x86.RegOp(x86.Reg(r.Intn(8)))
			}
		case 1:
			in = x86.Instr{Op: x86.MOVB, Src: genSrc(r), Dst: x86.Reg8Op(x86.Reg(r.Intn(4)))}
			if in.Src.Kind == x86.KReg {
				in.Src = x86.Reg8Op(in.Src.Reg & 3)
			}
		case 2:
			op := []x86.Op{x86.MOVZBL, x86.MOVSBL}[r.Intn(2)]
			src := genSrc(r)
			if src.Kind == x86.KReg {
				src = x86.Reg8Op(src.Reg & 3)
			}
			in = x86.Instr{Op: op, Src: src, Dst: x86.RegOp(x86.Reg(r.Intn(8)))}
		case 3:
			in = x86.Instr{Op: x86.LEA, Src: x86.MemOp(genMem(r)), Dst: x86.RegOp(x86.Reg(r.Intn(8)))}
		case 4, 5, 6, 7:
			op := []x86.Op{x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND,
				x86.OR, x86.XOR, x86.CMP, x86.TEST}[r.Intn(9)]
			in = x86.Instr{Op: op, Src: genSrc(r), Dst: genRegOrMemDst(r)}
			if in.Src.Kind == x86.KMem && in.Dst.Kind == x86.KMem {
				in.Src = x86.ImmOp(r.Uint32())
			}
		case 8:
			op := []x86.Op{x86.NOT, x86.NEG, x86.INC, x86.DEC}[r.Intn(4)]
			in = x86.Instr{Op: op, Dst: genRegOrMemDst(r)}
		case 9:
			op := []x86.Op{x86.SHL, x86.SHR, x86.SAR}[r.Intn(3)]
			in = x86.Instr{Op: op, Src: x86.ImmOp(uint32(r.Intn(34))), Dst: genRegOrMemDst(r)}
		case 10:
			in = x86.Instr{Op: x86.IMUL, Src: genSrc(r), Dst: genRegOrMemDst(r)}
			if in.Src.Kind == x86.KMem && in.Dst.Kind == x86.KMem {
				in.Src = x86.RegOp(x86.Reg(r.Intn(8)))
			}
		case 11:
			in = x86.Instr{Op: x86.SETCC, CC: ccs[r.Intn(len(ccs))], Dst: x86.Reg8Op(x86.Reg(r.Intn(4)))}
			if r.Intn(3) == 0 {
				in.Dst = x86.MemOp(genMem(r))
			}
		case 12:
			in = x86.Instr{Op: x86.PUSH, Dst: genSrc(r)}
			if in.Dst.Kind == x86.KMem {
				in.Dst = x86.RegOp(x86.Reg(r.Intn(8)))
			}
		case 13:
			in = x86.Instr{Op: x86.POP, Dst: x86.RegOp(x86.Reg(r.Intn(8)))}
		case 14:
			in = x86.Instr{Op: x86.PUSHF}
		case 15:
			in = x86.Instr{Op: x86.POPF}
		case 16:
			// Forward jump (possibly to the exit at n).
			in = x86.Instr{Op: x86.JMP, Target: int32(pc + 1 + r.Intn(n-pc))}
		case 17, 18:
			in = x86.Instr{Op: x86.JCC, CC: ccs[r.Intn(len(ccs))],
				Target: int32(pc + 1 + r.Intn(n-pc))}
		default:
			in = x86.Instr{Op: x86.CALL, Target: int32(pc + 1 + r.Intn(n-pc))}
		}
		host = append(host, in)
	}
	return host
}

// absShapes reports which of genMem's absolute-address shapes a program
// holds: a statically straddling operand, and operands on each of the
// two pages that collide in one TLB slot.
func absShapes(host []x86.Instr) (straddle, data, alias bool) {
	for _, in := range host {
		for _, o := range [2]x86.Operand{in.Src, in.Dst} {
			if o.Kind != x86.KMem || o.Mem.HasBase || o.Mem.HasIndex {
				continue
			}
			switch addr := uint32(o.Mem.Disp); {
			case addr&(mach.PageSize-1) > mach.PageSize-4:
				straddle = true
			case addr>>mach.PageShift == dataPage>>mach.PageShift:
				data = true
			case addr>>mach.PageShift == aliasPage>>mach.PageShift:
				alias = true
			}
		}
	}
	return
}

// TestNativeMatchesStep pins the emitter differential on a fixed set of
// random programs, so plain `go test` exercises every opcode's native
// form against the interpreter — from pc 0, on the always-bail path and
// at every re-entry point (see checkNativeMatchesStep).
func TestNativeMatchesStep(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 40
	}
	r := rand.New(rand.NewSource(90210))
	var straddles, collisions int
	for it := 0; it < iters; it++ {
		n := 4 + r.Intn(40)
		host := genProgram(r, n)
		if !checkNativeMatchesStep(t, fmt.Sprintf("iter %d", it), host, seedRegs(r)) {
			continue // the reference did not terminate
		}
		straddle, data, alias := absShapes(host)
		if straddle {
			straddles++
		}
		if data && alias {
			collisions++
		}
	}
	if straddles == 0 || collisions == 0 {
		t.Fatalf("generator drifted: %d programs with a static straddle, %d with colliding absolute pages",
			straddles, collisions)
	}
}

// FuzzNativeEmit extends the differential beyond the fixed seeds.
func FuzzNativeEmit(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		host, seedState := fuzzProgram(seed)
		if !checkNativeMatchesStep(t, fmt.Sprintf("seed %d", seed), host, seedState) {
			t.Skip("reference run did not terminate")
		}
	})
}

// fuzzSeeds is FuzzNativeEmit's seed corpus: 1, 7 and 4242 are the
// historical seeds, 5 and 22 programs holding every absolute-address
// shape (TestFuzzSeedsHoldAbsoluteShapes).
var fuzzSeeds = []int64{1, 7, 4242, 5, 22}

func fuzzProgram(seed int64) ([]x86.Instr, func(*x86.State)) {
	r := rand.New(rand.NewSource(seed))
	n := 4 + r.Intn(40)
	host := genProgram(r, n)
	return host, seedRegs(r)
}

// TestFuzzSeedsHoldAbsoluteShapes keeps the seed corpus honest: between
// them the seeds must reach the static straddle and the TLB-slot
// collision.
func TestFuzzSeedsHoldAbsoluteShapes(t *testing.T) {
	var straddle, collide bool
	for _, seed := range fuzzSeeds {
		host, _ := fuzzProgram(seed)
		s, d, a := absShapes(host)
		straddle = straddle || s
		collide = collide || d && a
	}
	if !straddle || !collide {
		t.Fatalf("seed corpus lacks an absolute shape: straddle %v, collision %v", straddle, collide)
	}
}

// TestNativeAbsoluteAddresses pins the compile-time-resolved probe on
// hand-written blocks: words at the last offsets of a page (the three
// straddling ones are unconditional bails), bytes at the same offsets
// (never a straddle), and two pages that evict each other from one TLB
// slot.
func TestNativeAbsoluteAddresses(t *testing.T) {
	abs := func(addr uint32) x86.Operand { return x86.MemOp(x86.MemRef{Disp: int32(addr)}) }
	var host []x86.Instr
	for off := uint32(mach.PageSize - 5); off < mach.PageSize; off++ {
		host = append(host,
			x86.Instr{Op: x86.MOV, Src: abs(dataPage + off), Dst: x86.RegOp(x86.EAX)},
			x86.Instr{Op: x86.ADD, Src: x86.RegOp(x86.EAX), Dst: abs(dataPage + off)},
			x86.Instr{Op: x86.MOVZBL, Src: abs(dataPage + off), Dst: x86.RegOp(x86.ECX)},
			x86.Instr{Op: x86.SETCC, CC: x86.B, Dst: abs(dataPage + off)},
		)
	}
	for i := uint32(0); i < 4; i++ {
		host = append(host,
			x86.Instr{Op: x86.ADD, Src: abs(dataPage + 4*i), Dst: x86.RegOp(x86.EDX)},
			x86.Instr{Op: x86.MOV, Src: x86.RegOp(x86.EDX), Dst: abs(aliasPage + 4*i)},
		)
	}
	seed := seedRegs(rand.New(rand.NewSource(1)))
	if !checkNativeMatchesStep(t, "absolute", host, seed) {
		t.Fatal("straight-line block did not terminate")
	}

	// The straddling words are decided at compile time: a warm TLB never
	// makes them native, and nothing else in the block keeps bailing
	// except the two pages fighting over one slot.
	b := compileBlock(t, "absolute", host)
	if want := 2 * 3; b.code.Bails != want {
		t.Fatalf("Code.Bails = %d, want %d (a load and an add at each of 3 straddling offsets)", b.code.Bails, want)
	}
	st := x86.NewState()
	seed(st)
	ctx := native.NewCtx()
	runNative(t, b.host, b.costs, b.code, b.base, st, ctx, 0, true)
	res := runNative(t, b.host, b.costs, b.code, b.base, st, ctx, 0, true)
	if want := 2*3 + 8; res.bails != want {
		t.Fatalf("warm run bailed %d times, want %d (6 static straddles + 8 slot evictions)", res.bails, want)
	}
}

// TestNativeStackOps pins the call/ret round trip: a block whose CALL
// pushes the return index and whose RET pops it must exit exactly where
// Step says. The RET lands mid-segment (pc 2 is a leader only because it
// follows the CALL), so the run also takes a resume entry.
func TestNativeStackOps(t *testing.T) {
	host := []x86.Instr{
		{Op: x86.MOV, Src: x86.ImmOp(7), Dst: x86.RegOp(x86.EAX)},
		{Op: x86.CALL, Target: 4},
		{Op: x86.ADD, Src: x86.ImmOp(100), Dst: x86.RegOp(x86.EAX)},
		{Op: x86.JMP, Target: 6},
		{Op: x86.ADD, Src: x86.ImmOp(1), Dst: x86.RegOp(x86.EAX)},
		{Op: x86.RET},
	}
	checkNativeMatchesStep(t, "call/ret", host, func(st *x86.State) {
		st.R[x86.ESP] = 0x8000
	})
}

// TestNativeTLBMissThenHit proves the warm path: the first execution of
// a memory-touching block bails, the second runs fully native.
func TestNativeTLBMissThenHit(t *testing.T) {
	host := []x86.Instr{
		{Op: x86.MOV, Src: x86.ImmOp(0xdead), Dst: x86.MemOp(x86.MemRef{Disp: 0x3000})},
		{Op: x86.MOV, Src: x86.MemOp(x86.MemRef{Disp: 0x3000}), Dst: x86.RegOp(x86.ECX)},
	}
	b := compileBlock(t, "miss-then-hit", host)
	st := x86.NewState()
	ctx := native.NewCtx()
	if res := runNative(t, b.host, b.costs, b.code, b.base, st, ctx, 0, true); res.bails == 0 {
		t.Fatal("first run of a cold page never bailed")
	}
	if st.R[x86.ECX] != 0xdead {
		t.Fatalf("loaded %#x, want 0xdead", st.R[x86.ECX])
	}
	if res := runNative(t, b.host, b.costs, b.code, b.base, st, ctx, 0, true); res.bails != 0 {
		t.Fatalf("warmed run still bailed %d times", res.bails)
	}
	if mach.PageSize != 1<<mach.PageShift {
		t.Fatal("page geometry exports disagree")
	}
}

// TestNativeSegmentCostLimit pins the compile-time rejection: a segment
// whose summed cost passes the limit is an error, as one oversized
// instruction is.
func TestNativeSegmentCostLimit(t *testing.T) {
	nop := x86.Instr{Op: x86.MOV, Src: x86.ImmOp(1), Dst: x86.RegOp(x86.EAX)}
	host := []x86.Instr{nop, nop, {Op: x86.JMP, Target: 3}, nop}
	if _, err := native.Compile(host, []uint64{1 << 29, 1<<29 - 1, 1, 1 << 30}); err != nil {
		t.Fatalf("segments at the limit rejected: %v", err)
	}
	if _, err := native.Compile(host, []uint64{1 << 29, 1 << 29, 1, 1}); err == nil {
		t.Fatal("segment summing past the limit compiled")
	}
	if _, err := native.Compile(host, []uint64{1, 1, 1, 1<<30 + 1}); err == nil {
		t.Fatal("oversized instruction cost compiled")
	}
}

// TestFlagsLiveAfter is the table for the emitter's flag-liveness pass.
func TestFlagsLiveAfter(t *testing.T) {
	const (
		cf  = native.FlagCF
		zf  = native.FlagZF
		sf  = native.FlagSF
		of  = native.FlagOF
		all = cf | zf | sf | of
	)
	eax, ecx := x86.RegOp(x86.EAX), x86.RegOp(x86.ECX)
	add := x86.Instr{Op: x86.ADD, Src: ecx, Dst: eax}
	mov := x86.Instr{Op: x86.MOV, Src: ecx, Dst: eax}
	for _, tc := range []struct {
		name string
		host []x86.Instr
		want []uint8
	}{
		{"dead before overwrite", []x86.Instr{add, mov, add}, []uint8{0, 0, all}},
		{"live at exit", []x86.Instr{add}, []uint8{all}},
		{"only what a reader names", []x86.Instr{
			add,
			{Op: x86.SETCC, CC: x86.LE, Dst: x86.Reg8Op(x86.EAX)},
			add,
		}, []uint8{zf | sf | of, 0, all}},
		{"live across a jcc join", []x86.Instr{
			add,                                 // ZF for pc 1, CF for pc 3 on both paths
			{Op: x86.JCC, CC: x86.E, Target: 3}, // pc 2 kills nothing the join needs
			mov,
			{Op: x86.JCC, CC: x86.B, Target: 5},
			add,
		}, []uint8{all, all, all, all, all}},
		{"join needs one flag", []x86.Instr{
			add,
			{Op: x86.JCC, CC: x86.E, Target: 3},
			mov,
			{Op: x86.SETCC, CC: x86.B, Dst: x86.Reg8Op(x86.ECX)},
			add,
		}, []uint8{cf | zf, cf, cf, 0, all}},
		{"inc keeps cf alive", []x86.Instr{add, {Op: x86.INC, Dst: eax}}, []uint8{cf, all}},
		{"adc reads cf", []x86.Instr{add, {Op: x86.ADC, Src: ecx, Dst: eax}, add}, []uint8{cf, 0, all}},
		{"shl $0 writes nothing", []x86.Instr{add, {Op: x86.SHL, Src: x86.ImmOp(32), Dst: eax}, mov}, []uint8{all, all, all}},
		{"shl $1 writes all", []x86.Instr{add, {Op: x86.SHL, Src: x86.ImmOp(1), Dst: eax}}, []uint8{0, all}},
		{"pushf reads all", []x86.Instr{add, {Op: x86.PUSHF}, add}, []uint8{all, 0, all}},
		{"popf writes all", []x86.Instr{add, {Op: x86.POPF}}, []uint8{0, all}},
		{"ret and exit targets read all", []x86.Instr{
			add,
			{Op: x86.JCC, CC: x86.E, Target: 9}, // out of range: an exit
			add,
			{Op: x86.RET},
			add,
		}, []uint8{all, all, all, all, all}},
		{"backward target reads all", []x86.Instr{
			add,
			add,
			{Op: x86.JMP, Target: 1},
		}, []uint8{0, all, all}},
		{"unsupported shape reads all", []x86.Instr{
			add,
			{Op: x86.PUSH, Dst: x86.MemOp(x86.MemRef{Disp: dataPage})},
			add,
		}, []uint8{all, 0, all}},
	} {
		got := native.FlagsLiveAfter(tc.host)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: live-after masks %04b, want %04b", tc.name, got, tc.want)
		}
	}
}
