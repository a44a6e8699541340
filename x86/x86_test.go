package x86

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParsePrintRoundTrip(t *testing.T) {
	cases := []string{
		"movl %eax, %edx",
		"movl $1, %edx",
		"movl $-4, %ecx",
		"movl (%edi), %eax",
		"movl %eax, 52(%esi)",
		"movl -4(%ecx,%eax,4), %eax",
		"movl 8(,%ebx,4), %eax",
		"movb %al, (%edi)",
		"movb (%esi), %dl",
		"movzbl %al, %eax",
		"movzbl (%esi), %ecx",
		"movsbl %bl, %ebx",
		"leal -1(%edx,%eax), %edx",
		"leal (%eax,%eax,2), %eax",
		"addl %eax, %ecx",
		"addl $-14, %esi",
		"adcl %ebx, %edx",
		"subl %esi, %ecx",
		"sbbl %esi, %ecx",
		"andl $255, %eax",
		"orl %ebx, %eax",
		"xorl %eax, %eax",
		"cmpl %ebx, %eax",
		"testl %eax, %eax",
		"notl %eax",
		"negl %ecx",
		"incl %eax",
		"decl %ebx",
		"shll $2, %eax",
		"shrl $31, %edx",
		"sarl $1, %ecx",
		"imull %ebx, %eax",
		"jmp 7",
		"je 3",
		"jne 5",
		"ja 1",
		"jle 0",
		"call 100",
		"ret",
		"pushl %ebp",
		"popl %ebp",
	}
	for _, src := range cases {
		in, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		printed := in.String()
		in2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q (from %q): %v", printed, src, err)
			continue
		}
		if in != in2 {
			t.Errorf("round trip %q -> %q: %+v vs %+v", src, printed, in, in2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "bogus %eax", "movl %eax", "movl %xyz, %eax", "jzz 3",
		"movl 4(%eax,%ebx,3), %ecx", "addl",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestInterpLea(t *testing.T) {
	// The paper's §1 one-instruction replacement.
	s := NewState()
	s.R[EAX] = 100
	s.R[EDX] = 23
	s.Step(MustParse("leal -1(%edx,%eax), %edx"), 0)
	if s.R[EDX] != 122 {
		t.Errorf("edx = %d, want 122", s.R[EDX])
	}
	// Scaled form from Figure 2(a).
	s.R[ECX] = 0x1000
	s.R[EAX] = 3
	s.Step(MustParse("leal -4(%ecx,%eax,4), %ebx"), 0)
	if s.R[EBX] != 0x1000+12-4 {
		t.Errorf("ebx = %#x", s.R[EBX])
	}
}

func TestInterpFlagsSubCmp(t *testing.T) {
	s := NewState()
	s.R[EAX] = 5
	s.R[EBX] = 5
	s.Step(MustParse("cmpl %ebx, %eax"), 0)
	if !s.ZF || s.SF || s.CF || s.OF {
		t.Errorf("cmp equal: CF=%v ZF=%v SF=%v OF=%v", s.CF, s.ZF, s.SF, s.OF)
	}
	s.R[EBX] = 6
	s.Step(MustParse("cmpl %ebx, %eax"), 0)
	// 5 - 6 borrows: x86 CF is set (opposite of ARM's C-clear convention).
	if !s.CF || !s.SF || s.ZF {
		t.Errorf("cmp less: CF=%v ZF=%v SF=%v", s.CF, s.ZF, s.SF)
	}
}

func TestInterpIncPreservesCF(t *testing.T) {
	// §5: incl does not update CF — the reason the adds/incl rule is
	// restricted by the unemulatable-flag analysis.
	s := NewState()
	s.R[EAX] = 0xffffffff
	s.R[EBX] = 1
	s.Step(MustParse("addl %ebx, %eax"), 0) // sets CF
	if !s.CF {
		t.Fatal("addl wrap should set CF")
	}
	s.Step(MustParse("incl %ecx"), 0)
	if !s.CF {
		t.Error("incl must preserve CF")
	}
	s.R[EDX] = 0x7fffffff
	s.Step(MustParse("incl %edx"), 0)
	if !s.OF || !s.SF {
		t.Error("incl overflow should set OF and SF")
	}
}

func TestInterpLogicClearsCFOF(t *testing.T) {
	s := NewState()
	s.CF, s.OF = true, true
	s.R[EAX] = 0x80000000
	s.Step(MustParse("andl %eax, %eax"), 0)
	if s.CF || s.OF || !s.SF || s.ZF {
		t.Errorf("and flags: CF=%v OF=%v SF=%v ZF=%v", s.CF, s.OF, s.SF, s.ZF)
	}
}

func TestInterpMovzbl(t *testing.T) {
	s := NewState()
	s.R[EAX] = 0x12345678
	s.Step(MustParse("movzbl %al, %eax"), 0)
	if s.R[EAX] != 0x78 {
		t.Errorf("eax = %#x", s.R[EAX])
	}
	s.R[EBX] = 0x123456f0
	s.Step(MustParse("movsbl %bl, %ebx"), 0)
	if s.R[EBX] != 0xfffffff0 {
		t.Errorf("ebx = %#x", s.R[EBX])
	}
}

func TestInterpMemory(t *testing.T) {
	s := NewState()
	s.R[ESI] = 0x1000
	s.R[EAX] = 0xcafebabe
	s.Step(MustParse("movl %eax, 52(%esi)"), 0)
	if got := s.Mem.Read32(0x1034); got != 0xcafebabe {
		t.Errorf("mem = %#x", got)
	}
	s.Step(MustParse("movzbl 52(%esi), %ecx"), 0)
	if s.R[ECX] != 0xbe {
		t.Errorf("ecx = %#x", s.R[ECX])
	}
	s.Step(MustParse("movb $65, (%esi)"), 0)
	if s.Mem.Load8(0x1000) != 65 {
		t.Error("movb imm store failed")
	}
}

func TestInterpShifts(t *testing.T) {
	s := NewState()
	s.R[EAX] = 0x80000001
	s.Step(MustParse("shrl $1, %eax"), 0)
	if s.R[EAX] != 0x40000000 || !s.CF {
		t.Errorf("shr: eax=%#x CF=%v", s.R[EAX], s.CF)
	}
	s.R[EBX] = 0x80000000
	s.Step(MustParse("sarl $31, %ebx"), 0)
	if s.R[EBX] != 0xffffffff {
		t.Errorf("sar: ebx=%#x", s.R[EBX])
	}
	s.R[ECX] = 3
	s.Step(MustParse("shll $2, %ecx"), 0)
	if s.R[ECX] != 12 {
		t.Errorf("shl: ecx=%d", s.R[ECX])
	}
}

func TestInterpControlFlow(t *testing.T) {
	// Count to 5 with a loop, then call/ret.
	code := MustParseSeq(`movl $0, %eax; movl $5, %ebx;
		cmpl %ebx, %eax; je 6; incl %eax; jmp 2; ret`)
	s := NewState()
	s.R[ESP] = 0x10000
	s.Mem.Write32(0x10000-4, 0x7ffffff) // sentinel return address
	s.R[ESP] -= 4
	exit, err := s.Run(code, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 0x7ffffff {
		t.Errorf("exit pc = %#x", exit)
	}
	if s.R[EAX] != 5 {
		t.Errorf("eax = %d", s.R[EAX])
	}
}

func TestInterpCallRet(t *testing.T) {
	// 0: call 2; 1: ret(sentinel)  2: movl $7,%eax; 3: ret
	code := MustParseSeq("call 2; ret; movl $7, %eax; ret")
	s := NewState()
	s.R[ESP] = 0x10000
	s.Mem.Write32(s.R[ESP]-4, 0xffff)
	s.R[ESP] -= 4
	exit, err := s.Run(code, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 0xffff || s.R[EAX] != 7 {
		t.Errorf("exit=%#x eax=%d", exit, s.R[EAX])
	}
	if s.R[ESP] != 0x10000 {
		t.Errorf("esp = %#x", s.R[ESP])
	}
}

func TestEncodeLengths(t *testing.T) {
	cases := []struct {
		src string
		len int
	}{
		{"movl %eax, %edx", 2},
		{"movl $1, %edx", 5},
		{"movl (%edi), %eax", 2},
		{"movl %eax, 52(%esi)", 3},
		{"movl -4(%ecx,%eax,4), %eax", 4},
		{"leal -1(%edx,%eax), %edx", 4},
		{"addl %eax, %ecx", 2},
		{"addl $1, %ecx", 3},    // imm8 form
		{"addl $1000, %ecx", 6}, // imm32 form
		{"andl $255, %eax", 6},  // 255 > 127 so imm32
		{"movzbl %al, %eax", 3},
		{"incl %eax", 1},
		{"pushl %ebp", 1},
		{"ret", 1},
		{"jmp 7", 5},
		{"je 3", 6},
		{"shll $2, %eax", 3},
		{"shll $1, %eax", 2},
		{"imull %ebx, %eax", 3},
		{"cmpl %ebx, %eax", 2},
	}
	for _, c := range cases {
		in := MustParse(c.src)
		b, err := Encode(in)
		if err != nil {
			t.Errorf("Encode(%q): %v", c.src, err)
			continue
		}
		if len(b) != c.len {
			t.Errorf("Encode(%q) = % x (len %d), want len %d", c.src, b, len(b), c.len)
		}
	}
}

func TestEncodeEBPAndESPSpecialCases(t *testing.T) {
	// (%ebp) needs a disp8 of 0; (%esp) needs a SIB byte.
	b, err := Encode(MustParse("movl (%ebp), %eax"))
	if err != nil || len(b) != 3 {
		t.Errorf("(%%ebp): % x, err %v", b, err)
	}
	b, err = Encode(MustParse("movl (%esp), %eax"))
	if err != nil || len(b) != 3 {
		t.Errorf("(%%esp): % x, err %v", b, err)
	}
	if _, err := Encode(Instr{Op: MOV, Src: MemOp(MemRef{HasBase: true, Base: EAX, HasIndex: true, Index: ESP, Scale: 1}), Dst: RegOp(EAX)}); err == nil {
		t.Error("esp as index must be rejected")
	}
}

// randomStraightLine builds random register-only sequences for the
// sym-vs-interp property.
func randomStraightLine(r *rand.Rand, n int) []Instr {
	regs := []Reg{EAX, ECX, EDX, EBX, ESI, EDI}
	randReg := func() Reg { return regs[r.Intn(len(regs))] }
	var out []Instr
	for i := 0; i < n; i++ {
		op := []Op{MOV, ADD, ADC, SUB, SBB, AND, OR, XOR, CMP, TEST, NOT,
			NEG, INC, DEC, SHL, SHR, SAR, IMUL, LEA, MOVZBL, MOVSBL}[r.Intn(21)]
		in := Instr{Op: op}
		switch op {
		case NOT, NEG, INC, DEC:
			in.Dst = RegOp(randReg())
		case SHL, SHR, SAR:
			in.Src = ImmOp(uint32(1 + r.Intn(31)))
			in.Dst = RegOp(randReg())
		case LEA:
			m := MemRef{Disp: int32(r.Intn(256) - 128), HasBase: true, Base: randReg()}
			if r.Intn(2) == 1 {
				m.HasIndex = true
				m.Index = randReg()
				m.Scale = []uint8{1, 2, 4, 8}[r.Intn(4)]
			}
			in.Src = MemOp(m)
			in.Dst = RegOp(randReg())
		case MOVZBL, MOVSBL:
			in.Src = Reg8Op([]Reg{EAX, ECX, EDX, EBX}[r.Intn(4)])
			in.Dst = RegOp(randReg())
		default:
			if r.Intn(2) == 1 {
				in.Src = ImmOp(uint32(r.Uint64()))
			} else {
				in.Src = RegOp(randReg())
			}
			in.Dst = RegOp(randReg())
		}
		out = append(out, in)
	}
	return out
}

// TestSymMatchesInterp mirrors the ARM property: symbolic then concrete
// evaluation must equal direct concrete execution.
func TestSymMatchesInterp(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for iter := 0; iter < 400; iter++ {
		seq := randomStraightLine(r, 1+r.Intn(5))
		sym := NewSymState("h", nil)
		if err := sym.SymExec(seq); err != nil {
			t.Fatalf("iter %d: SymExec(%s): %v", iter, Seq(seq), err)
		}
		st := NewState()
		env := map[string]uint64{}
		for i := 0; i < NumRegs; i++ {
			v := uint32(r.Uint64())
			st.R[i] = v
			env[fmt.Sprintf("h_%s", Reg(i))] = uint64(v)
		}
		st.CF, st.ZF, st.SF, st.OF = r.Intn(2) == 1, r.Intn(2) == 1, r.Intn(2) == 1, r.Intn(2) == 1
		env["h_cf"] = b2u(st.CF)
		env["h_zf"] = b2u(st.ZF)
		env["h_sf"] = b2u(st.SF)
		env["h_of"] = b2u(st.OF)

		for pc, in := range seq {
			st.Step(in, pc)
		}
		for i := 0; i < NumRegs; i++ {
			if got := uint32(sym.R[i].Eval(env)); got != st.R[i] {
				t.Fatalf("iter %d: %s symbolic=%#x concrete=%#x\nseq: %s\nexpr: %s",
					iter, Reg(i), got, st.R[i], Seq(seq), sym.R[i])
			}
		}
		for _, f := range []struct {
			name string
			sym  uint64
			conc bool
		}{
			{"CF", sym.CF.Eval(env), st.CF},
			{"ZF", sym.ZF.Eval(env), st.ZF},
			{"SF", sym.SF.Eval(env), st.SF},
			{"OF", sym.OF.Eval(env), st.OF},
		} {
			if (f.sym == 1) != f.conc {
				t.Fatalf("iter %d: flag %s symbolic=%d concrete=%v\nseq: %s",
					iter, f.name, f.sym, f.conc, Seq(seq))
			}
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestCondHoldsMatchesCondExpr(t *testing.T) {
	ccs := []CC{O, NO, B, AE, E, NE, BE, A, S, NS, L, GE, LE, G}
	for flags := 0; flags < 16; flags++ {
		st := NewState()
		st.CF = flags&1 == 1
		st.ZF = flags&2 == 2
		st.SF = flags&4 == 4
		st.OF = flags&8 == 8
		sym := NewSymState("h", nil)
		env := map[string]uint64{
			"h_cf": b2u(st.CF), "h_zf": b2u(st.ZF),
			"h_sf": b2u(st.SF), "h_of": b2u(st.OF),
		}
		for _, cc := range ccs {
			want := st.CondHolds(cc)
			got := sym.CondExpr(cc).Eval(env) == 1
			if want != got {
				t.Errorf("flags %04b cc %s: concrete %v symbolic %v", flags, cc, want, got)
			}
		}
	}
}

func TestSetccPushfPopf(t *testing.T) {
	s := NewState()
	s.R[EAX] = 5
	s.R[EBX] = 5
	s.Step(MustParse("cmpl %ebx, %eax"), 0)
	s.Step(MustParse("sete %cl"), 0)
	if s.R[ECX]&0xff != 1 {
		t.Errorf("sete: cl = %d", s.R[ECX]&0xff)
	}
	s.Step(MustParse("setne %cl"), 0)
	if s.R[ECX]&0xff != 0 {
		t.Errorf("setne: cl = %d", s.R[ECX]&0xff)
	}
	// pushf/popf round-trip the four modeled flags.
	s.R[ESP] = 0x9000
	s.CF, s.ZF, s.SF, s.OF = true, false, true, false
	s.Step(MustParse("pushfl"), 0)
	s.CF, s.ZF, s.SF, s.OF = false, true, false, true
	s.Step(MustParse("popfl"), 0)
	if !s.CF || s.ZF || !s.SF || s.OF {
		t.Errorf("popfl: CF=%v ZF=%v SF=%v OF=%v", s.CF, s.ZF, s.SF, s.OF)
	}
	if s.R[ESP] != 0x9000 {
		t.Errorf("esp = %#x", s.R[ESP])
	}
	// Parse/print round trip and encoding.
	for _, src := range []string{"sete %al", "setb %dl", "pushfl", "popfl"} {
		in := MustParse(src)
		if in.String() != src {
			t.Errorf("round trip %q -> %q", src, in.String())
		}
		if _, err := Encode(in); err != nil {
			t.Errorf("Encode(%q): %v", src, err)
		}
	}
}

func TestSetccSymbolic(t *testing.T) {
	sym := NewSymState("h", nil)
	if err := sym.SymExec(MustParseSeq("cmpl %ebx, %eax; sete %cl")); err != nil {
		t.Fatal(err)
	}
	conc := NewState()
	for _, vals := range [][2]uint32{{5, 5}, {5, 6}, {0, 0xffffffff}} {
		conc.R[EAX], conc.R[EBX] = vals[0], vals[1]
		conc.R[ECX] = 0x12345678
		for pc, in := range MustParseSeq("cmpl %ebx, %eax; sete %cl") {
			conc.Step(in, pc)
		}
		env := map[string]uint64{
			"h_eax": uint64(vals[0]), "h_ebx": uint64(vals[1]),
			"h_ecx": 0x12345678, "h_edx": 0, "h_esp": 0, "h_ebp": 0,
			"h_esi": 0, "h_edi": 0,
			"h_cf": 0, "h_zf": 0, "h_sf": 0, "h_of": 0,
		}
		if got := uint32(sym.R[ECX].Eval(env)); got != conc.R[ECX] {
			t.Errorf("vals %v: symbolic ecx=%#x concrete=%#x", vals, got, conc.R[ECX])
		}
	}
}

// TestEncodeDecodeRoundTrip: every encodable instruction must decode back
// to itself with the correct length.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	srcs := []string{
		"movl %eax, %edx", "movl $1, %edx", "movl $-4, %ecx",
		"movl (%edi), %eax", "movl %eax, 52(%esi)",
		"movl -4(%ecx,%eax,4), %eax", "movl 8(,%ebx,4), %eax",
		"movl $7, 1048576()", "movl 1048576(), %eax",
		"movb %al, (%edi)", "movb (%esi), %dl", "movb $65, (%esi)",
		"movzbl %al, %eax", "movzbl (%esi), %ecx", "movsbl %bl, %ebx",
		"leal -1(%edx,%eax,1), %edx", "leal (%eax,%eax,2), %eax",
		"addl %eax, %ecx", "addl $-14, %esi", "addl $100000, %esi",
		"adcl %ebx, %edx", "subl %esi, %ecx", "sbbl %esi, %ecx",
		"andl $255, %eax", "orl %ebx, %eax", "xorl %eax, %eax",
		"cmpl %ebx, %eax", "cmpl $0, %eax", "testl %eax, %eax",
		"notl %eax", "negl %ecx", "incl %eax", "decl %ebx",
		"shll $2, %eax", "shll $1, %eax", "shrl $31, %edx", "sarl $1, %ecx",
		"imull %ebx, %eax", "jmp 7", "je 3", "ja 1", "call 100", "ret",
		"pushl %ebp", "popl %ebp", "pushl $42",
		"sete %al", "setb %dl", "pushfl", "popfl",
		"movl (%ebp), %eax", "movl (%esp), %eax",
	}
	for _, src := range srcs {
		in := MustParse(src)
		enc, err := Encode(in)
		if err != nil {
			t.Errorf("Encode(%q): %v", src, err)
			continue
		}
		got, n, err := Decode(enc)
		if err != nil {
			t.Errorf("Decode(%q = %x): %v", src, enc, err)
			continue
		}
		if n != len(enc) {
			t.Errorf("Decode(%q) consumed %d of %d bytes", src, n, len(enc))
		}
		// Memory scale normalizes to 1 when an index is present.
		want := in
		if want.Src.Kind == KMem && want.Src.Mem.HasIndex && want.Src.Mem.Scale == 0 {
			want.Src.Mem.Scale = 1
		}
		if got != want {
			t.Errorf("%q: decode mismatch\n got %+v\nwant %+v", src, got, want)
		}
	}
}

// TestDecodeStreamOfGeneratedCode: every instruction a compiled corpus
// program contains must round-trip through the binary form.
func TestDecodeErrors(t *testing.T) {
	for _, b := range [][]byte{
		{}, {0x0f}, {0x81}, {0xc7, 0x05}, {0x0f, 0xff}, {0x90},
	} {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("Decode(%x): expected error", b)
		}
	}
}

// TestFuzzPrintParseRoundTrip covers the full operand space.
func TestFuzzPrintParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	randReg := func() Reg { return Reg(r.Intn(8)) }
	randMem := func() MemRef {
		m := MemRef{Disp: int32(r.Intn(1<<16)) - 1<<15}
		if r.Intn(4) != 0 {
			m.HasBase = true
			m.Base = randReg()
		}
		if r.Intn(2) == 0 {
			m.HasIndex = true
			m.Index = randReg()
			m.Scale = []uint8{1, 2, 4, 8}[r.Intn(4)]
		}
		if !m.HasBase && !m.HasIndex && m.Disp == 0 {
			m.Disp = 4
		}
		return m
	}
	randOperand := func() Operand {
		switch r.Intn(3) {
		case 0:
			return RegOp(randReg())
		case 1:
			return ImmOp(uint32(r.Intn(1 << 20)))
		default:
			return MemOp(randMem())
		}
	}
	ccs := []CC{O, NO, B, AE, E, NE, BE, A, S, NS, L, GE, LE, G}
	for i := 0; i < 3000; i++ {
		var in Instr
		switch r.Intn(12) {
		case 0:
			src, dst := randOperand(), randOperand()
			if src.Kind == KMem && dst.Kind == KMem {
				dst = RegOp(randReg())
			}
			if src.Kind != KImm && src.Kind != KReg && dst.Kind != KReg {
				dst = RegOp(randReg())
			}
			in = Instr{Op: MOV, Src: src, Dst: dst}
		case 1:
			in = Instr{Op: []Op{ADD, ADC, SUB, SBB, AND, OR, XOR, CMP, TEST}[r.Intn(9)],
				Src: randOperand(), Dst: RegOp(randReg())}
		case 2:
			in = Instr{Op: []Op{NOT, NEG, INC, DEC}[r.Intn(4)], Dst: RegOp(randReg())}
		case 3:
			in = Instr{Op: []Op{SHL, SHR, SAR}[r.Intn(3)], Src: ImmOp(uint32(1 + r.Intn(31))), Dst: RegOp(randReg())}
		case 4:
			in = Instr{Op: IMUL, Src: randOperand(), Dst: RegOp(randReg())}
			if in.Src.Kind == KImm {
				in.Src = RegOp(randReg())
			}
		case 5:
			in = Instr{Op: LEA, Src: MemOp(randMem()), Dst: RegOp(randReg())}
		case 6:
			in = Instr{Op: MOVZBL, Src: Reg8Op(Reg(r.Intn(4))), Dst: RegOp(randReg())}
		case 7:
			in = Instr{Op: JCC, CC: ccs[r.Intn(len(ccs))], Target: int32(r.Intn(1 << 20))}
		case 8:
			in = Instr{Op: JMP, Target: int32(r.Intn(1 << 20))}
		case 9:
			in = Instr{Op: SETCC, CC: ccs[r.Intn(len(ccs))], Dst: Reg8Op(Reg(r.Intn(4)))}
		case 10:
			in = Instr{Op: PUSH, Dst: RegOp(randReg())}
		default:
			in = Instr{Op: MOVB, Src: Reg8Op(Reg(r.Intn(4))), Dst: MemOp(randMem())}
		}
		printed := in.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("iter %d: Parse(%q): %v (from %+v)", i, printed, err, in)
		}
		if back != in {
			t.Fatalf("iter %d: %q -> %+v, want %+v", i, printed, back, in)
		}
	}
}

// TestQuickCmpConditionLaws: after cmpl %ecx, %eax (computing eax-ecx),
// every condition code must agree with the corresponding Go comparison —
// the ground-truth semantics every higher layer (symbolic execution,
// the DBT's condition machinery, learned branch rules) builds on.
func TestQuickCmpConditionLaws(t *testing.T) {
	run := func(a, b uint32) *State {
		s := NewState()
		s.R[EAX] = a
		s.R[ECX] = b
		s.Step(Instr{Op: CMP, Src: RegOp(ECX), Dst: RegOp(EAX)}, 0)
		return s
	}
	f := func(a, b uint32, pick uint8) bool {
		// Bias toward near-equal and boundary pairs where flag laws bite.
		switch pick % 4 {
		case 1:
			b = a
		case 2:
			b = a + 1
		case 3:
			a, b = uint32(int32(a)>>31), uint32(int32(b)>>31) // 0 or -1
		}
		s := run(a, b)
		sa, sb := int32(a), int32(b)
		d := a - b
		laws := []struct {
			cc   CC
			want bool
		}{
			{B, a < b}, {AE, a >= b}, {E, a == b}, {NE, a != b},
			{BE, a <= b}, {A, a > b},
			{L, sa < sb}, {GE, sa >= sb}, {LE, sa <= sb}, {G, sa > sb},
			{S, int32(d) < 0}, {NS, int32(d) >= 0},
			{O, (sa < sb) != (int32(d) < 0)}, {NO, (sa < sb) == (int32(d) < 0)},
		}
		for _, law := range laws {
			if s.CondHolds(law.cc) != law.want {
				t.Logf("cmp %#x,%#x: %s = %v, want %v", a, b, law.cc, !law.want, law.want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// TestUsesDefsFlagsConsistency checks the static def/use/flag summaries
// (which the DBT's optimizer and liveness passes trust) against the
// interpreter: perturbing a register outside Uses() must not change the
// instruction's effect; registers outside Defs() must be preserved; and
// instructions reported flag-transparent must leave all four flags alone.
func TestUsesDefsFlagsConsistency(t *testing.T) {
	samples := []string{
		"movl %ecx, %eax", "movl $42, %edx", "movl 16(%esi), %eax",
		"movl %eax, 8(%edi)", "movl 0(%esi,%ecx,4), %ebx",
		"movzbl %cl, %eax", "movsbl 3(%esi), %edx", "movb %al, 5(%edi)",
		"leal 4(%esi,%ecx,2), %eax",
		"addl %ecx, %eax", "subl $7, %ebx", "andl 12(%esi), %edx",
		"orl %eax, 16(%edi)", "xorl %ecx, %ecx", "cmpl %ecx, %eax",
		"testl $255, %edx", "adcl %ecx, %eax", "sbbl %ecx, %ebx",
		"incl %eax", "decl %ecx", "notl %edx", "negl %ebx",
		"shll $3, %eax", "shrl $1, %ecx", "sarl $2, %edx",
		"imull %ecx, %eax",
		"pushl %eax", "popl %ecx",
		"sete %al", "setb %cl",
		"pushfl", "popfl",
	}
	r := rand.New(rand.NewSource(99))
	const dataBase = 0x2000
	for _, src := range samples {
		in := MustParse(src)
		for trial := 0; trial < 30; trial++ {
			s1 := NewState()
			for reg := EAX; reg <= EDI; reg++ {
				// Bounded values double as valid data-page addresses.
				s1.R[reg] = dataBase + uint32(r.Intn(64))*4
			}
			s1.R[ESP] = 0x8000
			for i := uint32(0); i < 0x400; i += 4 {
				s1.Mem.Write32(dataBase+i, r.Uint32())
			}
			s1.CF, s1.ZF, s1.SF, s1.OF = r.Intn(2) == 1, r.Intn(2) == 1, r.Intn(2) == 1, r.Intn(2) == 1
			if in.Op == POPF {
				s1.Mem.Write32(s1.R[ESP], uint32(r.Intn(2))*FlagBitCF|uint32(r.Intn(2))*FlagBitOF)
			}

			pre := s1.Clone()

			// Pick a register outside Uses ∪ Defs ∪ {ESP} and perturb it.
			used := map[Reg]bool{ESP: true}
			for _, u := range in.Uses() {
				used[u] = true
			}
			for _, d := range in.Defs() {
				used[d] = true
			}
			perturb := Reg(0xff)
			for reg := EAX; reg <= EDI; reg++ {
				if !used[reg] && reg != ESP && reg != EBP {
					perturb = reg
					break
				}
			}
			s2 := s1.Clone()
			if perturb != Reg(0xff) {
				s2.R[perturb] += 0x40000000 // stays a valid address mod the page? not needed: unused
			}

			s1.Step(in, 0)
			s2.Step(in, 0)

			// 1. Effect independent of non-used registers.
			for reg := EAX; reg <= EDI; reg++ {
				if reg == perturb {
					continue
				}
				if s1.R[reg] != s2.R[reg] {
					t.Fatalf("%s: register %s depends on non-used %s", src, reg, perturb)
				}
			}
			if s1.CF != s2.CF || s1.ZF != s2.ZF || s1.SF != s2.SF || s1.OF != s2.OF {
				t.Fatalf("%s: flags depend on non-used %s", src, perturb)
			}

			// 2. Registers outside Defs() are preserved.
			defs := map[Reg]bool{}
			for _, d := range in.Defs() {
				defs[d] = true
			}
			for reg := EAX; reg <= EDI; reg++ {
				if !defs[reg] && s1.R[reg] != pre.R[reg] {
					t.Fatalf("%s: register %s changed but is not in Defs()=%v", src, reg, in.Defs())
				}
			}

			// 3. Flag transparency.
			if !in.WritesFlags() && in.Op != POPF {
				if s1.CF != pre.CF || s1.ZF != pre.ZF || s1.SF != pre.SF || s1.OF != pre.OF {
					t.Fatalf("%s: WritesFlags()=false but flags changed", src)
				}
			}
		}
	}
}

// TestEncodedLenDoesNotAllocate: the engine sizes every translated host
// instruction through EncodedLen, so it must stay off the heap — also
// for the longest form the encoder has (opcode, ModRM, SIB, disp32,
// imm32).
func TestEncodedLenDoesNotAllocate(t *testing.T) {
	ins := MustParseSeq("movl $305419896, 74565(%eax,%ecx,4); addl $4, %eax; jne 3; movzbl 8(%esp), %edx; ret")
	for _, in := range ins {
		in := in
		if n := EncodedLen(in); n == 0 || n > maxEncodedLen {
			t.Errorf("EncodedLen(%s) = %d, want 1..%d", in, n, maxEncodedLen)
		}
		if a := testing.AllocsPerRun(100, func() { EncodedLen(in) }); a != 0 {
			t.Errorf("EncodedLen(%s): %v allocs per call, want 0", in, a)
		}
	}
}

// TestSeqEncodedLenCloneBasics covers the small utility surfaces.
func TestSeqEncodedLenCloneBasics(t *testing.T) {
	ins := MustParseSeq("movl %ecx, %eax; addl $4, %eax")
	if got := Seq(ins); got != "movl %ecx, %eax; addl $4, %eax" {
		t.Errorf("Seq = %q", got)
	}
	if !MustParse("jne 3").IsCondBranch() || MustParse("jmp 3").IsCondBranch() {
		t.Error("IsCondBranch misclassifies")
	}
	for _, in := range ins {
		n := EncodedLen(in)
		enc, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) {
			t.Errorf("EncodedLen(%s) = %d, Encode produced %d bytes", in, n, len(enc))
		}
	}
	s := NewState()
	s.R[EAX] = 7
	s.Mem.Write32(0x100, 42)
	c := s.Clone()
	c.R[EAX] = 8
	c.Mem.Write32(0x100, 43)
	if s.R[EAX] != 7 || s.Mem.Read32(0x100) != 42 {
		t.Error("Clone is not a deep copy")
	}
}
