package x86

import (
	"fmt"
)

// Encode produces IA-32 machine bytes for the modeled subset, with genuine
// ModRM/SIB/displacement layout (so code-size statistics are length-
// accurate). As with the ARM encoder, branch "rel32" fields carry absolute
// instruction indices rather than byte-relative displacements, because the
// repository addresses code by instruction index.
func Encode(in Instr) ([]byte, error) { return appendEncode(nil, in) }

// maxEncodedLen bounds one instruction of the subset: two opcode bytes,
// ModRM, SIB, disp32 and imm32.
const maxEncodedLen = 12

// EncodedLen returns the encoded byte length of an instruction (0 when
// it has no encoding), without allocating.
func EncodedLen(in Instr) int {
	var buf [maxEncodedLen]byte
	b, err := appendEncode(buf[:0], in)
	if err != nil {
		return 0
	}
	return len(b)
}

// appendEncode appends the encoding of in to dst. On error the returned
// slice is nil.
func appendEncode(dst []byte, in Instr) ([]byte, error) {
	switch in.Op {
	case MOV:
		switch {
		case in.Src.Kind == KImm && in.Dst.Kind == KReg:
			return appendImm32(append(dst, 0xb8+byte(in.Dst.Reg)), in.Src.Imm), nil
		case in.Src.Kind == KImm && in.Dst.Kind == KMem:
			return appendModRMImm(append(dst, 0xc7), 0, in.Dst, in.Src.Imm, 4)
		case in.Src.Kind == KReg:
			return appendModRM(append(dst, 0x89), byte(in.Src.Reg), in.Dst)
		case in.Dst.Kind == KReg:
			return appendModRM(append(dst, 0x8b), byte(in.Dst.Reg), in.Src)
		}
		return nil, fmt.Errorf("x86: encode: bad mov %s", in)
	case MOVB:
		switch {
		case in.Src.Kind == KImm && in.Dst.Kind == KMem:
			return appendModRMImm(append(dst, 0xc6), 0, in.Dst, in.Src.Imm, 1)
		case in.Src.Kind == KReg8:
			return appendModRM(append(dst, 0x88), byte(in.Src.Reg), in.Dst)
		case in.Dst.Kind == KReg8:
			return appendModRM(append(dst, 0x8a), byte(in.Dst.Reg), in.Src)
		}
		return nil, fmt.Errorf("x86: encode: bad movb %s", in)
	case MOVZBL, MOVSBL:
		op2 := byte(0xb6)
		if in.Op == MOVSBL {
			op2 = 0xbe
		}
		if in.Dst.Kind != KReg {
			return nil, fmt.Errorf("x86: encode: %s needs register destination", in.Op)
		}
		return appendModRM(append(dst, 0x0f, op2), byte(in.Dst.Reg), in.Src)
	case LEA:
		if in.Src.Kind != KMem || in.Dst.Kind != KReg {
			return nil, fmt.Errorf("x86: encode: bad lea %s", in)
		}
		return appendModRM(append(dst, 0x8d), byte(in.Dst.Reg), in.Src)
	case ADD, OR, ADC, SBB, AND, SUB, XOR, CMP:
		idx, base := aluIndex(in.Op)
		switch {
		case in.Src.Kind == KImm:
			if v := int32(in.Src.Imm); v >= -128 && v <= 127 {
				return appendModRMImm(append(dst, 0x83), idx, in.Dst, in.Src.Imm, 1)
			}
			return appendModRMImm(append(dst, 0x81), idx, in.Dst, in.Src.Imm, 4)
		case in.Src.Kind == KReg:
			return appendModRM(append(dst, base+0x01), byte(in.Src.Reg), in.Dst)
		case in.Dst.Kind == KReg:
			return appendModRM(append(dst, base+0x03), byte(in.Dst.Reg), in.Src)
		}
		return nil, fmt.Errorf("x86: encode: bad alu %s", in)
	case TEST:
		switch {
		case in.Src.Kind == KImm:
			return appendModRMImm(append(dst, 0xf7), 0, in.Dst, in.Src.Imm, 4)
		case in.Src.Kind == KReg:
			return appendModRM(append(dst, 0x85), byte(in.Src.Reg), in.Dst)
		}
		return nil, fmt.Errorf("x86: encode: bad test %s", in)
	case NOT, NEG:
		idx := byte(2)
		if in.Op == NEG {
			idx = 3
		}
		return appendModRM(append(dst, 0xf7), idx, in.Dst)
	case INC:
		if in.Dst.Kind == KReg {
			return append(dst, 0x40+byte(in.Dst.Reg)), nil
		}
		return appendModRM(append(dst, 0xff), 0, in.Dst)
	case DEC:
		if in.Dst.Kind == KReg {
			return append(dst, 0x48+byte(in.Dst.Reg)), nil
		}
		return appendModRM(append(dst, 0xff), 1, in.Dst)
	case SHL, SHR, SAR:
		if in.Src.Kind != KImm {
			return nil, fmt.Errorf("x86: encode: %s needs immediate count", in.Op)
		}
		var idx byte
		switch in.Op {
		case SHL:
			idx = 4
		case SHR:
			idx = 5
		default:
			idx = 7
		}
		if in.Src.Imm == 1 {
			return appendModRM(append(dst, 0xd1), idx, in.Dst)
		}
		return appendModRMImm(append(dst, 0xc1), idx, in.Dst, in.Src.Imm, 1)
	case IMUL:
		if in.Dst.Kind != KReg {
			return nil, fmt.Errorf("x86: encode: imul needs register destination")
		}
		return appendModRM(append(dst, 0x0f, 0xaf), byte(in.Dst.Reg), in.Src)
	case JMP:
		return appendImm32(append(dst, 0xe9), uint32(in.Target)), nil
	case JCC:
		return appendImm32(append(dst, 0x0f, 0x80+byte(in.CC)), uint32(in.Target)), nil
	case CALL:
		return appendImm32(append(dst, 0xe8), uint32(in.Target)), nil
	case RET:
		return append(dst, 0xc3), nil
	case PUSH:
		switch in.Dst.Kind {
		case KReg:
			return append(dst, 0x50+byte(in.Dst.Reg)), nil
		case KImm:
			return appendImm32(append(dst, 0x68), in.Dst.Imm), nil
		}
		return nil, fmt.Errorf("x86: encode: bad push %s", in)
	case POP:
		if in.Dst.Kind == KReg {
			return append(dst, 0x58+byte(in.Dst.Reg)), nil
		}
		return nil, fmt.Errorf("x86: encode: bad pop %s", in)
	case SETCC:
		return appendModRM(append(dst, 0x0f, 0x90+byte(in.CC)), 0, in.Dst)
	case PUSHF:
		return append(dst, 0x9c), nil
	case POPF:
		return append(dst, 0x9d), nil
	}
	return nil, fmt.Errorf("x86: encode: unhandled op %s", in.Op)
}

// aluIndex returns the /digit for immediate forms and the 8-aligned base
// opcode for register forms of the classic ALU group.
func aluIndex(op Op) (digit, base byte) {
	switch op {
	case ADD:
		return 0, 0x00
	case OR:
		return 1, 0x08
	case ADC:
		return 2, 0x10
	case SBB:
		return 3, 0x18
	case AND:
		return 4, 0x20
	case SUB:
		return 5, 0x28
	case XOR:
		return 6, 0x30
	default: // CMP
		return 7, 0x38
	}
}

func appendImm32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// appendModRM appends the ModRM (+SIB +disp) bytes addressing operand o
// with the given reg field; nil on error.
func appendModRM(dst []byte, reg byte, o Operand) ([]byte, error) {
	switch o.Kind {
	case KReg, KReg8:
		return append(dst, 0xc0|reg<<3|byte(o.Reg)), nil
	case KMem:
		return appendMemModRM(dst, reg, o.Mem)
	default:
		return nil, fmt.Errorf("x86: encode: operand kind %d has no ModRM form", o.Kind)
	}
}

// appendModRMImm appends the ModRM form of o and then the low size (1
// or 4) bytes of imm.
func appendModRMImm(dst []byte, reg byte, o Operand, imm uint32, size int) ([]byte, error) {
	dst, err := appendModRM(dst, reg, o)
	if err != nil {
		return nil, err
	}
	if size == 1 {
		return append(dst, byte(imm)), nil
	}
	return appendImm32(dst, imm), nil
}

func appendMemModRM(dst []byte, reg byte, m MemRef) ([]byte, error) {
	if m.HasIndex && m.Index == ESP {
		return nil, fmt.Errorf("x86: encode: esp cannot be an index register")
	}
	scaleBits := byte(0)
	switch m.Scale {
	case 0, 1:
		scaleBits = 0
	case 2:
		scaleBits = 1
	case 4:
		scaleBits = 2
	case 8:
		scaleBits = 3
	default:
		return nil, fmt.Errorf("x86: encode: bad scale %d", m.Scale)
	}

	// Absolute (no base, no index): mod=00 rm=101 disp32.
	if !m.HasBase && !m.HasIndex {
		return appendImm32(append(dst, reg<<3|0x05), uint32(m.Disp)), nil
	}
	// Index without base: SIB with base=101, mod=00, disp32.
	if !m.HasBase {
		sib := scaleBits<<6 | byte(m.Index)<<3 | 0x05
		return appendImm32(append(dst, reg<<3|0x04, sib), uint32(m.Disp)), nil
	}

	var mod byte
	switch {
	case m.Disp == 0 && m.Base != EBP:
		mod = 0
	case m.Disp >= -128 && m.Disp <= 127:
		mod = 1
	default:
		mod = 2
	}
	if m.HasIndex || m.Base == ESP {
		idx := byte(4) // none
		if m.HasIndex {
			idx = byte(m.Index)
		}
		dst = append(dst, mod<<6|reg<<3|0x04, scaleBits<<6|idx<<3|byte(m.Base))
	} else {
		dst = append(dst, mod<<6|reg<<3|byte(m.Base))
	}
	switch mod {
	case 1:
		dst = append(dst, byte(m.Disp))
	case 2:
		dst = appendImm32(dst, uint32(m.Disp))
	}
	return dst, nil
}
