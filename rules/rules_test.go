package rules

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"dbtrules/arm"
	"dbtrules/expr"
	"dbtrules/x86"
)

// paperRule builds the paper's §1 motivating rule:
//
//	guest: add reg0, reg0, reg1 ; sub reg0, reg0, #imm0
//	host:  leal -imm0(reg0, reg1), reg0
func paperRule() *Rule {
	imm0 := expr.Sym(32, ImmSym(0))
	return &Rule{
		ID: 1,
		Guest: []arm.Instr{
			arm.MustParse("add r0, r0, r1"),
			arm.MustParse("sub r0, r0, #0"),
		},
		Host: []x86.Instr{
			x86.MustParse("leal 0(%eax,%ecx), %eax"),
		},
		NumRegParams: 2,
		NumImmParams: 1,
		GuestImms:    []GuestImmSlot{{Instr: 1, Field: GuestOp2Imm, Param: 0}},
		HostImms:     []HostImmSlot{{Instr: 0, Field: HostDisp, Expr: expr.Neg(imm0)}},
		Source:       "paper:§1",
	}
}

// orRule builds the Figure 4(b) rule:
//
//	guest: mov reg0, #imm0 ; orr reg0, reg0, #imm1
//	host:  movl $(imm0|imm1), reg0
func orRule() *Rule {
	or := expr.Or(expr.Sym(32, ImmSym(0)), expr.Sym(32, ImmSym(1)))
	return &Rule{
		ID: 2,
		Guest: []arm.Instr{
			arm.MustParse("mov r0, #0"),
			arm.MustParse("orr r0, r0, #0"),
		},
		Host:         []x86.Instr{x86.MustParse("movl $0, %eax")},
		NumRegParams: 1,
		NumImmParams: 2,
		GuestImms: []GuestImmSlot{
			{Instr: 0, Field: GuestOp2Imm, Param: 0},
			{Instr: 1, Field: GuestOp2Imm, Param: 1},
		},
		HostImms: []HostImmSlot{{Instr: 0, Field: HostSrcImm, Expr: or}},
		Source:   "paper:fig4b",
	}
}

func TestMatchPaperExample(t *testing.T) {
	r := paperRule()
	window := arm.MustParseSeq("add r1, r1, r0; sub r1, r1, #1")
	b, ok := r.Match(window)
	if !ok {
		t.Fatal("paper rule did not match its own motivating example")
	}
	if b.Regs[0] != arm.R1 || b.Regs[1] != arm.R0 {
		t.Errorf("register binding %v", b.Regs)
	}
	if b.Imms[0] != 1 {
		t.Errorf("immediate binding %v", b.Imms)
	}
	host, err := r.Instantiate(b, func(p int) (x86.Reg, error) {
		return []x86.Reg{x86.EDX, x86.EAX}[p], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(host) != 1 || host[0].String() != "leal -1(%edx,%eax,1), %edx" {
		t.Errorf("instantiated host = %q", x86.Seq(host))
	}
}

func TestMatchRejectsMismatches(t *testing.T) {
	r := paperRule()
	for _, src := range []string{
		"add r1, r1, r0; sub r1, r1, r2",  // imm vs reg operand2
		"add r1, r1, r0; sub r2, r1, #1",  // dest not tied
		"add r1, r1, r0; subs r1, r1, #1", // S-flag mismatch
		"sub r1, r1, #1; add r1, r1, r0",  // order
		"add r1, r1, r1; sub r1, r1, #1",  // aliased regs break injectivity
		"add r1, r1, r0",                  // length
	} {
		if _, ok := r.Match(arm.MustParseSeq(src)); ok {
			t.Errorf("rule matched %q but should not", src)
		}
	}
}

func TestMatchRepeatedImmParam(t *testing.T) {
	// One param appearing twice must bind consistently.
	r := &Rule{
		ID:           3,
		Guest:        arm.MustParseSeq("add r0, r0, #0; add r0, r0, #0"),
		Host:         []x86.Instr{x86.MustParse("addl $0, %eax")},
		NumRegParams: 1,
		NumImmParams: 1,
		GuestImms: []GuestImmSlot{
			{Instr: 0, Field: GuestOp2Imm, Param: 0},
			{Instr: 1, Field: GuestOp2Imm, Param: 0},
		},
		HostImms: []HostImmSlot{{Instr: 0, Field: HostSrcImm,
			Expr: expr.Mul(expr.Const(32, 2), expr.Sym(32, ImmSym(0)))}},
	}
	if _, ok := r.Match(arm.MustParseSeq("add r3, r3, #5; add r3, r3, #5")); !ok {
		t.Error("consistent repeated imm should match")
	}
	if _, ok := r.Match(arm.MustParseSeq("add r3, r3, #5; add r3, r3, #6")); ok {
		t.Error("inconsistent repeated imm must not match")
	}
	b, _ := r.Match(arm.MustParseSeq("add r3, r3, #5; add r3, r3, #5"))
	host, err := r.Instantiate(b, func(int) (x86.Reg, error) { return x86.EBX, nil })
	if err != nil {
		t.Fatal(err)
	}
	if host[0].String() != "addl $10, %ebx" {
		t.Errorf("host = %q", host[0])
	}
}

func TestInstantiateOrRule(t *testing.T) {
	r := orRule()
	// Figure 4(b): mov r1,#983040; orr r1,r1,#117440512 -> movl $0x70f00000.
	window := arm.MustParseSeq("mov r1, #983040; orr r1, r1, #117440512")
	b, ok := r.Match(window)
	if !ok {
		t.Fatal("or rule did not match")
	}
	host, err := r.Instantiate(b, func(int) (x86.Reg, error) { return x86.ECX, nil })
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("movl $%d, %%ecx", int32(983040|117440512))
	if host[0].String() != want {
		t.Errorf("host = %q, want %q", host[0], want)
	}
}

func TestInstantiateByteRegConstraint(t *testing.T) {
	r := &Rule{
		ID:           4,
		Guest:        arm.MustParseSeq("and r0, r0, #255"),
		Host:         []x86.Instr{{Op: x86.MOVZBL, Src: x86.Reg8Op(0), Dst: x86.RegOp(0)}},
		NumRegParams: 1,
	}
	b, ok := r.Match(arm.MustParseSeq("and r4, r4, #255"))
	if !ok {
		t.Fatal("movzbl rule did not match")
	}
	if _, err := r.Instantiate(b, func(int) (x86.Reg, error) { return x86.ESI, nil }); err == nil {
		t.Error("esi must be rejected for a byte-register operand")
	}
	host, err := r.Instantiate(b, func(int) (x86.Reg, error) { return x86.EDX, nil })
	if err != nil {
		t.Fatal(err)
	}
	if host[0].String() != "movzbl %dl, %edx" {
		t.Errorf("host = %q", host[0])
	}
}

func TestStoreLookupAndLongestMatch(t *testing.T) {
	s := NewStore()
	if !s.Add(paperRule()) || !s.Add(orRule()) {
		t.Fatal("Add failed")
	}
	// A 1-instruction rule that is a strict prefix of the paper rule's
	// first instruction, to exercise longest-first preference.
	single := &Rule{
		ID:           5,
		Guest:        arm.MustParseSeq("add r0, r0, r1"),
		Host:         []x86.Instr{x86.MustParse("addl %ecx, %eax")},
		NumRegParams: 2,
	}
	s.Add(single)

	block := arm.MustParseSeq("add r1, r1, r0; sub r1, r1, #1; mov r2, r3")
	r, b, l, ok := s.LongestMatch(block, 0)
	if !ok {
		t.Fatal("no match in block")
	}
	if r.ID != 1 || l != 2 {
		t.Errorf("longest match chose rule %d len %d, want rule 1 len 2", r.ID, l)
	}
	if b.Regs[0] != arm.R1 {
		t.Errorf("binding %v", b.Regs)
	}
	// The exact-window probe still finds the single-instruction rule the
	// longest-first scan passed over.
	if r, _, ok := s.Lookup(block[:1]); !ok || r.ID != 5 {
		t.Errorf("Lookup of the 1-instruction window chose rule %v", r)
	}
	if _, _, ok := s.Lookup(arm.MustParseSeq("sub r1, r1, #1; add r1, r1, r0")); ok {
		t.Error("Lookup matched a reordered window")
	}
	if _, _, ok := s.Lookup(nil); ok {
		t.Error("empty window must not match")
	}
}

func TestStoreDedupPrefersFewerHostInstrs(t *testing.T) {
	s := NewStore()
	long := paperRule()
	long.ID = 10
	long.Host = []x86.Instr{
		x86.MustParse("addl %ecx, %eax"),
		x86.MustParse("subl $1, %eax"),
	}
	s.Add(long)
	short := paperRule()
	short.ID = 11
	if !s.Add(short) {
		t.Fatal("better rule rejected")
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
	r, _, ok := s.Lookup(arm.MustParseSeq("add r1, r1, r0; sub r1, r1, #1"))
	if !ok || r.ID != 11 {
		t.Errorf("lookup returned rule %v", r)
	}
	// A worse rule arriving later must be rejected.
	worse := paperRule()
	worse.ID = 12
	worse.Host = long.Host
	if s.Add(worse) {
		t.Error("worse rule accepted")
	}
	// So must an equally good one: the first learned keeps its place.
	same := paperRule()
	same.ID = 13
	if s.Add(same) || s.Count() != 1 {
		t.Errorf("equal-length duplicate accepted (Count = %d)", s.Count())
	}
}

func TestHashKey(t *testing.T) {
	seq := arm.MustParseSeq("add r1, r1, r0; sub r1, r1, #1")
	want := (int(arm.ADD) + int(arm.SUB)) / 2
	if got := HashKey(seq); got != want {
		t.Errorf("HashKey = %d, want %d", got, want)
	}
	if HashKey(nil) != 0 {
		t.Error("empty key")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rulesIn := []*Rule{paperRule(), orRule()}
	rulesIn[0].Flags = [NumFlags]FlagEmu{FlagEqual, FlagEqual, FlagInverted, FlagUnemulated}
	rulesIn[0].EndsInBranch = false
	var buf bytes.Buffer
	if err := WriteRules(&buf, rulesIn); err != nil {
		t.Fatal(err)
	}
	rulesOut, err := ReadRules(&buf)
	if err != nil {
		t.Fatalf("ReadRules: %v\nfile:\n%s", err, buf.String())
	}
	if len(rulesOut) != 2 {
		t.Fatalf("got %d rules", len(rulesOut))
	}
	for i := range rulesIn {
		in, out := rulesIn[i], rulesOut[i]
		if arm.Seq(in.Guest) != arm.Seq(out.Guest) {
			t.Errorf("rule %d guest %q != %q", in.ID, arm.Seq(out.Guest), arm.Seq(in.Guest))
		}
		if x86.Seq(in.Host) != x86.Seq(out.Host) {
			t.Errorf("rule %d host %q != %q", in.ID, x86.Seq(out.Host), x86.Seq(in.Host))
		}
		if in.Flags != out.Flags || in.NumRegParams != out.NumRegParams ||
			in.NumImmParams != out.NumImmParams {
			t.Errorf("rule %d metadata mismatch", in.ID)
		}
		if len(in.HostImms) != len(out.HostImms) {
			t.Fatalf("rule %d himm count", in.ID)
		}
		for k := range in.HostImms {
			if !expr.Equal(in.HostImms[k].Expr, out.HostImms[k].Expr) {
				t.Errorf("rule %d himm %d expr %s != %s", in.ID, k,
					out.HostImms[k].Expr, in.HostImms[k].Expr)
			}
		}
	}
	// The round-tripped rule must still match and instantiate.
	b, ok := rulesOut[0].Match(arm.MustParseSeq("add r1, r1, r0; sub r1, r1, #1"))
	if !ok {
		t.Fatal("round-tripped rule no longer matches")
	}
	host, err := rulesOut[0].Instantiate(b, func(p int) (x86.Reg, error) {
		return []x86.Reg{x86.EDX, x86.EAX}[p], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if host[0].String() != "leal -1(%edx,%eax,1), %edx" {
		t.Errorf("host = %q", host[0])
	}
}

func TestReadRulesErrors(t *testing.T) {
	for _, bad := range []string{
		"g add r0, r0, r1\n",
		"rule 1\ng bogus instr\nend\n",
		"rule 1 flags=a,b\nend\n",
		"rule 1\nhimm 0 src (nonsense\nend\n",
		"rule 1\n", // unterminated
	} {
		if _, err := ReadRules(bytes.NewReader([]byte(bad))); err == nil {
			t.Errorf("ReadRules(%q): expected error", bad)
		}
	}
}

func TestSelfTestAcceptsGoodRules(t *testing.T) {
	for _, r := range []*Rule{paperRule(), orRule()} {
		if err := r.SelfTest(16, 1); err != nil {
			t.Errorf("rule %d: %v", r.ID, err)
		}
	}
}

// TestSelfTestRejectsCorruptedRules is the failure-injection property: any
// semantic corruption of a rule file must be caught before application.
func TestSelfTestRejectsCorruptedRules(t *testing.T) {
	// Wrong addressing scale (the displacement is computed from the
	// immediate-parameter expression, so corrupt the scale instead).
	bad := paperRule()
	bad.Host = []x86.Instr{x86.MustParse("leal 0(%eax,%ecx,2), %eax")}
	if err := bad.SelfTest(16, 1); err == nil {
		t.Error("corrupted scale not caught")
	}
	// Swapped register parameters on the host side.
	bad2 := paperRule()
	bad2.Host = []x86.Instr{x86.MustParse("leal 0(%ecx,%ecx,1), %eax")}
	bad2.HostImms = paperRule().HostImms
	if err := bad2.SelfTest(16, 1); err == nil {
		t.Error("corrupted register mapping not caught")
	}
	// Wrong immediate relation (identity instead of negation).
	bad3 := paperRule()
	bad3.HostImms = []HostImmSlot{{Instr: 0, Field: HostDisp, Expr: expr.Sym(32, ImmSym(0))}}
	if err := bad3.SelfTest(16, 1); err == nil {
		t.Error("corrupted immediate relation not caught")
	}
	// Wrong branch condition on a branch rule.
	br := &Rule{
		ID:           7,
		Guest:        arm.MustParseSeq("cmp r0, r1; bne 0"),
		Host:         x86.MustParseSeq("cmpl %ecx, %eax; je 0"),
		NumRegParams: 2,
		EndsInBranch: true,
	}
	if err := br.SelfTest(16, 1); err == nil {
		t.Error("inverted branch condition not caught")
	}
}

// TestQuickMatchInstantiateRoundTrip: render the paper rule's guest
// pattern with random (distinct) registers and a random encodable
// immediate; Match must recover exactly those bindings, and Instantiate
// must substitute the host template consistently — for every input, not
// just the hand-picked cases above.
func TestQuickMatchInstantiateRoundTrip(t *testing.T) {
	r := paperRule()
	hostRegs := []x86.Reg{x86.EAX, x86.ECX, x86.EBX, x86.ESI, x86.EDI}
	f := func(g0, g1 uint8, immRaw uint16, h0, h1 uint8) bool {
		r0 := arm.Reg(g0 % 11)
		r1 := arm.Reg(g1 % 11)
		if r0 == r1 {
			return true // aliased registers are (correctly) rejected; tested elsewhere
		}
		imm := uint32(immRaw) & 0xff // always encodable as an ARM op2 immediate
		window := arm.MustParseSeq(fmt.Sprintf(
			"add r%d, r%d, r%d; sub r%d, r%d, #%d", r0, r0, r1, r0, r0, imm))
		b, ok := r.Match(window)
		if !ok {
			t.Logf("no match for %s", arm.Seq(window))
			return false
		}
		if b.Regs[0] != r0 || b.Regs[1] != r1 || b.Imms[0] != imm {
			t.Logf("bindings %v %v for %s", b.Regs, b.Imms, arm.Seq(window))
			return false
		}
		hr0 := hostRegs[int(h0)%len(hostRegs)]
		hr1 := hostRegs[int(h1)%len(hostRegs)]
		if hr0 == hr1 {
			return true
		}
		host, err := r.Instantiate(b, func(p int) (x86.Reg, error) {
			return []x86.Reg{hr0, hr1}[p], nil
		})
		if err != nil {
			t.Logf("instantiate: %v", err)
			return false
		}
		want := fmt.Sprintf("leal %d(%%%s,%%%s,1), %%%s", -int32(imm), hr0, hr1, hr0)
		if imm == 0 {
			want = fmt.Sprintf("leal (%%%s,%%%s,1), %%%s", hr0, hr1, hr0)
		}
		if len(host) != 1 || host[0].String() != want {
			t.Logf("instantiated %q, want %q", x86.Seq(host), want)
			return false
		}
		// Semantic check: executing guest and host from an equivalent
		// state must agree on the destination register.
		gs := arm.NewState()
		gs.R[r0], gs.R[r1] = 1000+uint32(g0), 77+uint32(g1)
		for pc, in := range window {
			gs.Step(in, pc)
		}
		xs := x86.NewState()
		xs.R[hr0], xs.R[hr1] = 1000+uint32(g0), 77+uint32(g1)
		xs.Step(host[0], 0)
		return xs.R[hr0] == gs.R[r0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRuleAccessors covers the small rule/store query surfaces the DBT
// uses when planning flag saves and window scans.
func TestRuleAccessors(t *testing.T) {
	r := paperRule()
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	if r.WritesFlags() {
		t.Error("paper rule writes no flags")
	}
	if r.HasUnemulatedFlags() {
		t.Error("paper rule has no unemulated flags")
	}
	r.Flags[FlagC] = FlagUnemulated
	if !r.HasUnemulatedFlags() || !r.WritesFlags() {
		t.Error("unemulated C not reported")
	}
	r.Flags[FlagC] = FlagUnset
	r.Flags[FlagZ] = FlagEqual
	if r.HasUnemulatedFlags() {
		t.Error("FlagEqual misreported as unemulated")
	}
	if !r.WritesFlags() {
		t.Error("Z-writing rule not reported")
	}

	s := NewStore()
	if s.MaxLen() != 0 {
		t.Errorf("empty store MaxLen = %d", s.MaxLen())
	}
	s.Add(paperRule())
	s.Add(orRule())
	if s.MaxLen() != 2 {
		t.Errorf("MaxLen = %d, want 2", s.MaxLen())
	}
	all := s.All()
	if len(all) != 2 || all[0].ID > all[1].ID {
		t.Errorf("All() not in stable ID order: %v", all)
	}
}

// TestMarshalByteParamPlaceholder: a host template using a byte operand on
// a parameter index above EBX (possible in long combined rules with many
// register parameters) must survive the text round-trip — the printer
// emits the p<N>b pseudo-name and the parser restores it.
func TestMarshalByteParamPlaceholder(t *testing.T) {
	r := &Rule{
		ID:           7,
		Guest:        []arm.Instr{arm.MustParse("strb r4, [r5]")},
		Host:         []x86.Instr{x86.MustParse("movb %p4b, (%ebp)")},
		NumRegParams: 6,
		Source:       "placeholder",
	}
	if got := r.Host[0].String(); got != "movb %p4b, (%ebp)" {
		t.Fatalf("placeholder print = %q", got)
	}
	var buf bytes.Buffer
	if err := WriteRules(&buf, []*Rule{r}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRules(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Host[0].String() != r.Host[0].String() {
		t.Fatalf("round-trip mismatch: %v", back)
	}
	if back[0].Host[0].Src.Kind != x86.KReg8 || back[0].Host[0].Src.Reg != x86.Reg(4) {
		t.Fatalf("placeholder operand decoded as %+v", back[0].Host[0].Src)
	}
}
