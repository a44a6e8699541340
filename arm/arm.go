// Package arm models the guest instruction set: a representative ARM32
// (A32) subset with the classic data-processing instructions (including the
// barrel shifter and S-flag variants), multiplies, word/byte loads and
// stores with immediate and scaled-register addressing, compares,
// conditional and linking branches, and push/pop register lists.
//
// The package provides four independent views of an instruction, all used
// by the reproduction:
//
//   - a structured representation (Instr) built by the parser or compiler,
//   - textual assembly syntax (Parse / String),
//   - a 32-bit machine encoding (Encode / Decode) faithful to ARM's
//     data-processing layout including the rotated 8-bit immediate rule,
//   - executable semantics, both concrete (Step on a State) and symbolic
//     (package-level SymExec on a SymState).
package arm

import "fmt"

// Reg is an ARM general-purpose register r0..r15.
type Reg uint8

// Register aliases.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	SP // r13
	LR // r14
	PC // r15
)

// NumRegs is the number of general-purpose registers.
const NumRegs = 16

// String returns the canonical register name.
func (r Reg) String() string {
	switch r {
	case SP:
		return "sp"
	case LR:
		return "lr"
	case PC:
		return "pc"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// Cond is an ARM condition code.
type Cond uint8

// Condition codes in encoding order.
const (
	EQ Cond = iota // Z
	NE             // !Z
	CS             // C
	CC             // !C
	MI             // N
	PL             // !N
	VS             // V
	VC             // !V
	HI             // C && !Z
	LS             // !C || Z
	GE             // N == V
	LT             // N != V
	GT             // !Z && N == V
	LE             // Z || N != V
	AL             // always
)

var condNames = [...]string{"eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
	"hi", "ls", "ge", "lt", "gt", "le", "", "nv"}

// String returns the condition suffix ("" for AL).
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond%d", uint8(c))
}

// Op is an ARM operation mnemonic.
type Op uint8

// Operations. The data-processing group (AND..MVN) mirrors ARM's 4-bit
// opcode field order so the encoder can derive the field directly.
const (
	AND Op = iota
	EOR
	SUB
	RSB
	ADD
	ADC
	SBC
	RSC
	TST
	TEQ
	CMP
	CMN
	ORR
	MOV
	BIC
	MVN
	// Non-data-processing operations follow.
	MUL
	MLA
	LDR
	LDRB
	STR
	STRB
	B
	BL
	BX
	PUSH
	POP
)

var opNames = [...]string{
	AND: "and", EOR: "eor", SUB: "sub", RSB: "rsb", ADD: "add", ADC: "adc",
	SBC: "sbc", RSC: "rsc", TST: "tst", TEQ: "teq", CMP: "cmp", CMN: "cmn",
	ORR: "orr", MOV: "mov", BIC: "bic", MVN: "mvn", MUL: "mul", MLA: "mla",
	LDR: "ldr", LDRB: "ldrb", STR: "str", STRB: "strb", B: "b", BL: "bl",
	BX: "bx", PUSH: "push", POP: "pop",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// IsDataProcessing reports whether o is in the data-processing group.
func (o Op) IsDataProcessing() bool { return o <= MVN }

// IsCompare reports whether o only sets flags (TST/TEQ/CMP/CMN).
func (o Op) IsCompare() bool { return o == TST || o == TEQ || o == CMP || o == CMN }

// IsBranch reports whether o transfers control.
func (o Op) IsBranch() bool { return o == B || o == BL || o == BX }

// IsMemory reports whether o accesses memory (excluding push/pop).
func (o Op) IsMemory() bool { return o == LDR || o == LDRB || o == STR || o == STRB }

// ShiftKind is a barrel-shifter operation.
type ShiftKind uint8

// Shift kinds in encoding order.
const (
	LSL ShiftKind = iota
	LSR
	ASR
	ROR
)

var shiftNames = [...]string{"lsl", "lsr", "asr", "ror"}

// String returns the shift mnemonic.
func (s ShiftKind) String() string { return shiftNames[s] }

// Shift is an immediate barrel-shifter application. Amount 0 with kind LSL
// means "no shift".
type Shift struct {
	Kind   ShiftKind
	Amount uint8
}

// None reports whether the shift is a no-op.
func (s Shift) None() bool { return s.Kind == LSL && s.Amount == 0 }

// Operand2 is the flexible second operand of data-processing instructions:
// either a rotated immediate or a (possibly shifted) register.
type Operand2 struct {
	IsImm bool
	Imm   uint32
	Reg   Reg
	Shift Shift
}

// ImmOp2 builds an immediate operand.
func ImmOp2(v uint32) Operand2 { return Operand2{IsImm: true, Imm: v} }

// RegOp2 builds a plain register operand.
func RegOp2(r Reg) Operand2 { return Operand2{Reg: r} }

// ShiftedOp2 builds a shifted register operand.
func ShiftedOp2(r Reg, k ShiftKind, amount uint8) Operand2 {
	return Operand2{Reg: r, Shift: Shift{Kind: k, Amount: amount}}
}

// Mem is a load/store addressing expression:
//
//	[base, #imm]              (HasIndex false)
//	[base, index, shift]      (HasIndex true)
//	[base, -index]            (HasIndex true, NegIndex true)
//
// Only offset addressing (no writeback) is modeled; the compiler substrate
// never emits pre/post-indexed writeback forms.
type Mem struct {
	Base     Reg
	Imm      int32
	HasIndex bool
	Index    Reg
	NegIndex bool
	Shift    Shift
}

// Instr is one ARM instruction. Fields are used according to Op:
//
//	data-processing: Rd, Rn, Op2 (MOV/MVN ignore Rn; compares ignore Rd)
//	MUL:  Rd, Rn(=Rm source1), Op2.Reg(source2);  MLA adds Ra
//	LDR/STR (and B variants): Rd (data), Mem
//	B/BL: Target (instruction index within the function)
//	BX:   Rn (target register)
//	PUSH/POP: RegList bitmask
type Instr struct {
	Op       Op
	Cond     Cond
	SetFlags bool
	Rd, Rn   Reg
	Ra       Reg
	Op2      Operand2
	Mem      Mem
	Target   int32
	RegList  uint16
	// Line is the source line this instruction was compiled from (0 when
	// unknown); the learner groups instructions by this field.
	Line int32
}

// Predicated reports whether the instruction executes conditionally
// (and is not a plain conditional branch).
func (i Instr) Predicated() bool {
	return i.Cond != AL && i.Op != B
}

// IsCondBranch reports whether i is a conditional direct branch.
func (i Instr) IsCondBranch() bool { return i.Op == B && i.Cond != AL }

// EndsBlock reports whether i may write the PC and so terminates a
// translation block: a branch, or a pop whose register list names PC.
func (i Instr) EndsBlock() bool {
	return i.Op.IsBranch() || (i.Op == POP && i.RegList&(1<<PC) != 0)
}

// Defs returns the general-purpose registers written by i (excluding PC
// effects of branches).
func (i Instr) Defs() []Reg {
	switch {
	case i.Op.IsCompare(), i.Op == STR, i.Op == STRB, i.Op.IsBranch():
		if i.Op == BL {
			return []Reg{LR}
		}
		return nil
	case i.Op == PUSH:
		return []Reg{SP}
	case i.Op == POP:
		out := []Reg{SP}
		for r := Reg(0); r < NumRegs; r++ {
			if i.RegList&(1<<r) != 0 {
				out = append(out, r)
			}
		}
		return out
	default:
		return []Reg{i.Rd}
	}
}

// Uses returns the general-purpose registers read by i.
func (i Instr) Uses() []Reg {
	var out []Reg
	add := func(r Reg) { out = append(out, r) }
	switch i.Op {
	case MOV, MVN:
		if !i.Op2.IsImm {
			add(i.Op2.Reg)
		}
	case MUL:
		add(i.Rn)
		add(i.Op2.Reg)
	case MLA:
		add(i.Rn)
		add(i.Op2.Reg)
		add(i.Ra)
	case LDR, LDRB:
		add(i.Mem.Base)
		if i.Mem.HasIndex {
			add(i.Mem.Index)
		}
	case STR, STRB:
		add(i.Rd)
		add(i.Mem.Base)
		if i.Mem.HasIndex {
			add(i.Mem.Index)
		}
	case B, BL:
	case BX:
		add(i.Rn)
	case PUSH:
		add(SP)
		for r := Reg(0); r < NumRegs; r++ {
			if i.RegList&(1<<r) != 0 {
				add(r)
			}
		}
	case POP:
		add(SP)
	default: // data-processing with Rn
		add(i.Rn)
		if !i.Op2.IsImm {
			add(i.Op2.Reg)
		}
	}
	return out
}

// ReadsFlags reports whether i's execution depends on NZCV (condition
// predicates or carry-in arithmetic).
func (i Instr) ReadsFlags() bool {
	if i.Cond != AL {
		return true
	}
	return i.Op == ADC || i.Op == SBC || i.Op == RSC
}

// WritesFlags reports whether i updates any of NZCV.
func (i Instr) WritesFlags() bool {
	return i.SetFlags || i.Op.IsCompare()
}

// EncodeImm attempts to encode v as an ARM rotated 8-bit immediate,
// returning the 12-bit shifter_operand field and true on success. This is
// the real A32 constraint the paper mentions when discussing host-ISA
// immediate ranges (§5).
func EncodeImm(v uint32) (uint16, bool) {
	for rot := uint32(0); rot < 32; rot += 2 {
		rotated := v<<rot | v>>(32-rot)
		if rot == 0 {
			rotated = v
		}
		if rotated <= 0xff {
			return uint16((rot/2)<<8 | rotated), true
		}
	}
	return 0, false
}

// ImmEncodable reports whether v fits the rotated 8-bit immediate rule.
func ImmEncodable(v uint32) bool {
	_, ok := EncodeImm(v)
	return ok
}
