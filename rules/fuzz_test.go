package rules

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dbtrules/arm"
	"dbtrules/x86"
)

// genGuestBlock emits a random straight-line guest sequence covering the
// operand shapes Match distinguishes: immediate/register/shifted second
// operands, S-variants, predication, compares, mul/mla, and every memory
// addressing form.
func genGuestBlock(r *rand.Rand, n int) []arm.Instr {
	reg := func() int { return r.Intn(11) }
	op2 := func() string {
		switch r.Intn(4) {
		case 0:
			return fmt.Sprintf("#%d", r.Intn(64))
		case 1:
			return fmt.Sprintf("r%d", reg())
		default:
			kind := []string{"lsl", "lsr", "asr", "ror"}[r.Intn(4)]
			return fmt.Sprintf("r%d, %s #%d", reg(), kind, 1+r.Intn(31))
		}
	}
	var code []arm.Instr
	for len(code) < n {
		var line string
		switch r.Intn(10) {
		case 0, 1, 2:
			op := []string{"add", "sub", "rsb", "and", "orr", "eor", "bic", "adc", "sbc"}[r.Intn(9)]
			s := []string{"", "s"}[r.Intn(2)]
			line = fmt.Sprintf("%s%s r%d, r%d, %s", op, s, reg(), reg(), op2())
		case 3:
			op := []string{"mov", "mvn"}[r.Intn(2)]
			cond := []string{"", "eq", "ne", "cs", "ge", "lt"}[r.Intn(6)]
			line = fmt.Sprintf("%s%s r%d, %s", op, cond, reg(), op2())
		case 4:
			op := []string{"cmp", "cmn", "tst", "teq"}[r.Intn(4)]
			line = fmt.Sprintf("%s r%d, %s", op, reg(), op2())
		case 5:
			if r.Intn(2) == 0 {
				line = fmt.Sprintf("mul r%d, r%d, r%d", reg(), reg(), reg())
			} else {
				line = fmt.Sprintf("mla r%d, r%d, r%d, r%d", reg(), reg(), reg(), reg())
			}
		case 6, 7:
			op := []string{"ldr", "ldrb", "str", "strb"}[r.Intn(4)]
			switch r.Intn(3) {
			case 0:
				line = fmt.Sprintf("%s r%d, [r%d, #%d]", op, reg(), reg(), r.Intn(16)*4)
			case 1:
				line = fmt.Sprintf("%s r%d, [r%d, r%d]", op, reg(), reg(), reg())
			default:
				line = fmt.Sprintf("%s r%d, [r%d, r%d, lsl #%d]", op, reg(), reg(), reg(), 1+r.Intn(3))
			}
		case 8:
			cond := []string{"", "eq", "ne", "hi", "le"}[r.Intn(5)]
			line = fmt.Sprintf("b%s %d", cond, r.Intn(n))
		default:
			line = fmt.Sprintf("mov r%d, #%d", reg(), r.Intn(256))
		}
		code = append(code, arm.MustParse(line))
	}
	return code
}

// parameterize turns a concrete guest window into a rule pattern exactly
// the way Match expects: register fields are renumbered by first
// appearance over the fields Match binds, and (optionally) immediates
// become immediate parameters. The host side is matching-irrelevant
// filler whose length drives the §6.1 fewest-host-instructions dedup.
func parameterize(window []arm.Instr, hostLen, id int, immParams bool) (*Rule, bool) {
	pat := make([]arm.Instr, len(window))
	regParam := map[arm.Reg]int{}
	param := func(g arm.Reg) arm.Reg {
		p, ok := regParam[g]
		if !ok {
			p = len(regParam)
			regParam[g] = p
		}
		return arm.Reg(p)
	}
	var guestImms []GuestImmSlot
	nImm := 0
	for i, in := range window {
		switch in.Op {
		case arm.BL, arm.BX, arm.PUSH, arm.POP:
			return nil, false // never in rules
		}
		p := in
		if in.Op == arm.B {
			pat[i] = p
			continue
		}
		if in.Op != arm.CMP && in.Op != arm.CMN && in.Op != arm.TST && in.Op != arm.TEQ {
			p.Rd = param(in.Rd)
		}
		if !(in.Op == arm.MOV || in.Op == arm.MVN || in.Op.IsMemory()) {
			p.Rn = param(in.Rn)
		}
		if in.Op == arm.MLA {
			p.Ra = param(in.Ra)
		}
		if in.Op.IsMemory() {
			p.Mem.Base = param(in.Mem.Base)
			if in.Mem.HasIndex {
				p.Mem.Index = param(in.Mem.Index)
			}
			if immParams {
				guestImms = append(guestImms, GuestImmSlot{Instr: i, Field: GuestMemImm, Param: nImm})
				p.Mem.Imm = 0
				nImm++
			}
		} else if in.Op != arm.MUL && in.Op != arm.MLA {
			if in.Op2.IsImm {
				if immParams {
					guestImms = append(guestImms, GuestImmSlot{Instr: i, Field: GuestOp2Imm, Param: nImm})
					p.Op2.Imm = 0
					nImm++
				}
			} else {
				p.Op2.Reg = param(in.Op2.Reg)
			}
		} else {
			p.Op2.Reg = param(in.Op2.Reg)
		}
		pat[i] = p
	}
	host := make([]x86.Instr, hostLen)
	for i := range host {
		host[i] = x86.Instr{Op: x86.MOV, Src: x86.RegOp(x86.EAX), Dst: x86.RegOp(x86.EAX)}
	}
	return &Rule{
		ID: id, Guest: pat, Host: host,
		NumRegParams: len(regParam), NumImmParams: nImm,
		GuestImms: guestImms,
		Source:    fmt.Sprintf("fuzz:%d", id),
	}, true
}

// buildRandomStore installs rules parameterized from random sub-windows
// of block (so lookups really hit) and of decoy (bucket noise).
func buildRandomStore(r *rand.Rand, block, decoy []arm.Instr, nRules int) *Store {
	s := NewStore()
	id := 1
	for tries := 0; tries < 400 && s.Count() < nRules; tries++ {
		src := block
		if r.Intn(3) == 0 {
			src = decoy
		}
		l := 1 + r.Intn(5)
		if l > len(src) {
			continue
		}
		i := r.Intn(len(src) - l + 1)
		rule, ok := parameterize(src[i:i+l], 1+r.Intn(4), id, r.Intn(2) == 0)
		if !ok {
			continue
		}
		s.Add(rule)
		id++
	}
	return s
}

// matchResult flattens one lookup outcome for comparison.
type matchResult struct {
	rule *Rule
	b    *Binding
	l    int
	ok   bool
}

func sameMatch(a, b matchResult) bool {
	return a.rule == b.rule && a.l == b.l && a.ok == b.ok && reflect.DeepEqual(a.b, b.b)
}

// checkIndexAgainstStore asserts, at every position of block, that a
// BlockScanner over the frozen Index (the engine's only lookup path)
// returns byte-identical results to the locked Store reference:
// LongestMatch, and exact Lookup at every window length.
func checkIndexAgainstStore(t *testing.T, s *Store, sc *BlockScanner, block []arm.Instr) {
	t.Helper()
	for i := range block {
		sr, sb, sl, sok := s.LongestMatch(block, i)
		cr, cb, cl, cok := sc.LongestMatch(i)
		want := matchResult{sr, sb, sl, sok}
		if got := (matchResult{cr, cb, cl, cok}); !sameMatch(got, want) {
			t.Fatalf("pos %d: scanner LongestMatch %+v, Store %+v", i, got, want)
		}
		for l := 1; l <= 6 && i+l <= len(block); l++ {
			lr, lb, lok := s.Lookup(block[i : i+l])
			mr, mb, mok := sc.Match(i, l)
			want := matchResult{lr, lb, l, lok}
			if got := (matchResult{mr, mb, l, mok}); !sameMatch(got, want) {
				t.Fatalf("pos %d len %d: scanner Match %+v, Store %+v", i, l, got, want)
			}
		}
	}
}

// runIndexDifferential is the body shared by the deterministic test and
// the native fuzz target.
func runIndexDifferential(t *testing.T, seed int64, nRules int) {
	r := rand.New(rand.NewSource(seed))
	block := genGuestBlock(r, 24+r.Intn(40))
	decoy := genGuestBlock(r, 24)
	s := buildRandomStore(r, block, decoy, nRules)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	ix := s.Freeze()
	if ix.Count() != s.Count() || ix.MaxLen() != s.MaxLen() || ix.Version() != s.Version() {
		t.Fatalf("seed %d: snapshot metadata %d/%d/%d, store %d/%d/%d", seed,
			ix.Count(), ix.MaxLen(), ix.Version(), s.Count(), s.MaxLen(), s.Version())
	}
	sc := ix.NewBlockScanner(block)
	checkIndexAgainstStore(t, s, sc, block)
	sc.Reset(decoy) // scanner reuse across blocks
	checkIndexAgainstStore(t, s, sc, decoy)
}

// FuzzIndexMatchesStore is the differential fuzz target behind the CI
// fuzz-smoke stage: for random rule sets over random guest blocks, a
// BlockScanner over the frozen Index must return byte-identical results
// to the locked Store paths — same rule, same binding, same length — for
// LongestMatch and exact Lookup.
func FuzzIndexMatchesStore(f *testing.F) {
	for _, seed := range []int64{1, 7, 20260805} {
		f.Add(seed, uint8(12))
		f.Add(seed, uint8(20))
	}
	f.Fuzz(func(t *testing.T, seed int64, nRules uint8) {
		runIndexDifferential(t, seed, int(nRules)%28+4)
	})
}
