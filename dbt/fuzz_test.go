package dbt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dbtrules/arm"
	"dbtrules/codegen"
	"dbtrules/learn"
	"dbtrules/minc"
	"dbtrules/prog"
	"dbtrules/rules"
)

// genDBTProgram mirrors the codegen fuzz generator (kept local: the two
// packages evolve independently and the duplication is 40 lines).
func genDBTProgram(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("int tab[64];\nchar buf[64];\nint total;\n")
	b.WriteString("\nint work(int a, int b) {\n\tint x = a;\n\tint y = b;\n\tint i;\n")
	for s := 0; s < 3+r.Intn(4); s++ {
		switch r.Intn(8) {
		case 0:
			fmt.Fprintf(&b, "\tx = x %s y;\n", []string{"+", "-", "^", "&", "|"}[r.Intn(5)])
		case 1:
			fmt.Fprintf(&b, "\ty = (x << %d) - (y >> %d);\n", 1+r.Intn(3), 1+r.Intn(5))
		case 2:
			fmt.Fprintf(&b, "\ttab[(x + %d) & 63] = y;\n", r.Intn(64))
		case 3:
			fmt.Fprintf(&b, "\tx = tab[y & 63] + buf[x & 63];\n")
		case 4:
			fmt.Fprintf(&b, "\tbuf[(y + %d) & 63] = x;\n", r.Intn(64))
		case 5:
			fmt.Fprintf(&b, "\tfor (i = 0; i < %d; i++) {\n\t\tx = x + tab[i & 63] - %d;\n\t\tif (x > y) {\n\t\t\tx = x - y;\n\t\t}\n\t}\n",
				2+r.Intn(10), r.Intn(9))
		case 6:
			fmt.Fprintf(&b, "\tif (x %s %d) {\n\t\ty = y * %d + 1;\n\t} else {\n\t\ty = y - x;\n\t}\n",
				[]string{"<", ">", "=="}[r.Intn(3)], r.Intn(64), 1+r.Intn(5))
		case 7:
			fmt.Fprintf(&b, "\ttotal = total + x - y;\n")
		}
	}
	b.WriteString("\treturn x ^ (y + total);\n}\n")
	return b.String()
}

// TestRandomProgramsUnderDBT: for random programs, all three backends
// (with rules learned from the program itself — maximal coverage, maximal
// stress on rule application) must match native ARM execution.
func TestRandomProgramsUnderDBT(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 5
	}
	r := rand.New(rand.NewSource(4242))
	for it := 0; it < iters; it++ {
		src := genDBTProgram(r)
		args := []uint32{uint32(r.Int31n(2000) - 1000), uint32(r.Int31n(2000) - 1000)}
		checkBackendsAgree(t, fmt.Sprintf("iter %d", it), src, args)
	}
}

// checkBackendsAgree compiles src, learns rules from the program itself
// (maximal coverage, maximal stress on rule application), runs it under
// all three backends, and requires every one to match native ARM execution
// on the return value and on all global state.
func checkBackendsAgree(t *testing.T, label, src string, args []uint32) {
	t.Helper()
	p, err := minc.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v\n%s", label, err, src)
	}
	g, h, err := codegen.Compile(p, codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "fuzz"})
	if err != nil {
		t.Fatalf("%s: %v\n%s", label, err, src)
	}
	l := learn.NewLearner(nil)
	rs, _ := l.LearnProgram(g, h)
	store := rules.NewStore()
	for _, rule := range rs {
		store.Add(rule)
	}
	wantRet, wantSt, err := g.RunARM(nil, "work", args, 100_000_000)
	if err != nil {
		t.Fatalf("%s native: %v\n%s", label, err, src)
	}
	for _, backend := range []Backend{BackendQEMU, BackendRules, BackendJIT} {
		var st *rules.Store
		if backend == BackendRules {
			st = store
		}
		e := NewEngine(g, backend, st)
		got, err := e.Run("work", args, 200_000_000)
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", label, backend, err, src)
		}
		if got != wantRet {
			t.Fatalf("%s %s args %v: got %d, native %d\n%s",
				label, backend, args, int32(got), int32(wantRet), src)
		}
		if backend == BackendRules {
			// The frozen-index lookup must pick exactly what the locked
			// store reference walk picks in every block.
			checkCoverageReplaysStoreWalk(t, label+" rules", e, store)
		}
		for _, gl := range g.Globals {
			for i := 0; i < gl.Len; i++ {
				addr := gl.Addr + uint32(i*gl.ElemSize)
				var want, have uint32
				if gl.ElemSize == 1 {
					want = uint32(wantSt.Mem.Load8(addr))
					have = uint32(e.Mem().Load8(addr))
				} else {
					want = wantSt.Mem.Read32(addr)
					have = e.Mem().Read32(addr)
				}
				if want != have {
					t.Fatalf("%s %s: global %s[%d] = %d, native %d\n%s",
						label, backend, gl.Name, i, have, want, src)
				}
			}
		}
	}
}

// FuzzBackendsAgree is the native-fuzzing entry point behind the CI
// fuzz-smoke job: the fuzzed seed drives the random-program generator and
// the whole learn-then-translate stack must stay consistent across
// backends. `go test -fuzz=FuzzBackendsAgree` explores seeds beyond the
// checked-in regression corpus.
func FuzzBackendsAgree(f *testing.F) {
	for _, seed := range []int64{1, 4242, 987654321} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		src := genDBTProgram(r)
		args := []uint32{uint32(r.Int31n(2000) - 1000), uint32(r.Int31n(2000) - 1000)}
		checkBackendsAgree(t, fmt.Sprintf("seed %d", seed), src, args)
	})
}

// TestFuzzCrossFormatFlags drives the §5 flag machinery through randomized
// programs of the exact shape that mixes saved host-format flags with
// partial (logical-S) slot updates: a rule-translated flag producer, an
// optional intervening logical-S instruction, then consumers of all four
// flags. Differential against native ARM execution.
func TestFuzzCrossFormatFlags(t *testing.T) {
	l := learn.NewLearner(nil)
	store := rules.NewStore()
	for _, pair := range [][2]string{
		{"cmp r0, r1; bne 2", "cmpl %ecx, %eax; jne 9"},
		{"adds r7, r0, r1", "movl %eax, %ebx; addl %ecx, %ebx"},
	} {
		r, bucket := l.LearnOne(learnCand(pair[0], pair[1]))
		if r == nil {
			t.Fatalf("rule not learned from %q: %v", pair[0], bucket)
		}
		store.Add(r)
	}

	producers := []string{
		"cmp r0, r1; bne 2", // rule: sublike save
		"adds r7, r0, r1",   // rule: addlike save
		"subs r7, r0, r1",   // TCG: slot format
	}
	middles := []string{
		"",                 // flags flow through directly
		"ands r3, r2, #12", // logical S: partial N/Z update
		"tst r2, #255",     // compare-only logical S
		"movs r3, r2",      // MOV S: partial update
		"eors r3, r2, r0",  // XOR S
		"mov r3, #5",       // no flag touch at all
	}
	consumers := []string{"movcs r4, #1", "movvs r5, #1", "moveq r6, #1",
		"movmi r8, #1", "movhi r9, #1", "movge r10, #1"}

	rng := rand.New(rand.NewSource(20260705))
	cases := 0
	for _, prod := range producers {
		for _, mid := range middles {
			src := prod
			if mid != "" {
				src += "; " + mid
			}
			for _, c := range consumers {
				src += "; " + c
			}
			src += "; bx lr"
			code := arm.MustParseSeq(src)
			g := &prog.ARM{Code: code}
			g.Funcs = []prog.Func{{Name: "f", Entry: 0, End: len(code)}}

			for trial := 0; trial < 40; trial++ {
				args := []uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), 0}
				// Mix in corner values often: flag bugs live on boundaries.
				if trial%3 == 0 {
					corners := []uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff}
					args[0] = corners[rng.Intn(len(corners))]
					args[1] = corners[rng.Intn(len(corners))]
				}
				native := nativeFlagState(t, g, args)
				e := NewEngine(g, BackendRules, store)
				if _, err := e.Run("f", args, 100000); err != nil {
					t.Fatalf("%s %v: %v", src, args, err)
				}
				for i, reg := range []arm.Reg{arm.R4, arm.R5, arm.R6, arm.R8, arm.R9, arm.R10} {
					if got := e.readEnv(EnvReg(reg)); got != native[i] {
						t.Fatalf("program %q args %v: consumer %d (r%d) = %d, native %d",
							src, args, i, reg, got, native[i])
					}
				}
				cases++
			}
		}
	}
	t.Logf("%d differential cases", cases)
}

// nativeFlagState runs the program on the ARM interpreter and returns the
// six consumer registers.
func nativeFlagState(t *testing.T, g *prog.ARM, args []uint32) [6]uint32 {
	t.Helper()
	_, st, err := g.RunARM(nil, "f", args, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return [6]uint32{st.R[arm.R4], st.R[arm.R5], st.R[arm.R6],
		st.R[arm.R8], st.R[arm.R9], st.R[arm.R10]}
}

// TestCombinedRulesDifferential: rules learned with the adjacent-line
// combining extension (longer many-to-many windows) must leave program
// results and memory identical to native execution, and must not reduce
// rule coverage relative to single-line learning.
func TestCombinedRulesDifferential(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 4
	}
	r := rand.New(rand.NewSource(9191))
	coveredMore, coveredLess := 0, 0
	for it := 0; it < iters; it++ {
		src := genDBTProgram(r)
		p, err := minc.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		g, h, err := codegen.Compile(p, codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "combined"})
		if err != nil {
			t.Fatal(err)
		}
		args := []uint32{uint32(r.Int31n(2000) - 1000), uint32(r.Int31n(2000) - 1000)}
		want, _, err := g.RunARM(nil, "work", args, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}

		var cycles [2]uint64
		for cfg, combine := range []int{1, 3} {
			l := learn.NewLearner(&learn.Options{CombineLines: combine})
			rs, _ := l.LearnProgram(g, h)
			store := rules.NewStore()
			for _, rule := range rs {
				store.Add(rule)
			}
			e := NewEngine(g, BackendRules, store)
			got, err := e.Run("work", args, 200_000_000)
			if err != nil {
				t.Fatalf("iter %d combine=%d: %v\n%s", it, combine, err, src)
			}
			if got != want {
				t.Fatalf("iter %d combine=%d: got %d, native %d\n%s",
					it, combine, int32(got), int32(want), src)
			}
			cycles[cfg] = e.Stats.TotalCycles()
		}
		// Longer rules cover the same guest instructions with denser host
		// code, so modeled execution should not get slower.
		if cycles[1] < cycles[0] {
			coveredMore++
		}
		if cycles[1] > cycles[0] {
			coveredLess++
		}
	}
	if coveredLess > coveredMore {
		t.Errorf("combined rules slower in %d/%d programs (faster in %d)",
			coveredLess, iters, coveredMore)
	}
	t.Logf("combined rules reduced modeled cycles in %d/%d programs (increased in %d)",
		coveredMore, iters, coveredLess)
}

// genHandGuest emits a random straight-line ARM sequence exercising the
// translator paths compiled code never produces: carry-in arithmetic
// (adc/sbc/rsc), every shifter form including shifter-carry S-variants,
// predicated moves after compares, and mul/mla.
func genHandGuest(r *rand.Rand) []arm.Instr {
	var lines []string
	reg := func() int { return []int{0, 1, 2, 3, 4, 5, 8}[r.Intn(7)] }
	op2 := func() string {
		switch r.Intn(4) {
		case 0:
			return fmt.Sprintf("#%d", r.Intn(256))
		case 1:
			return fmt.Sprintf("r%d", reg())
		default:
			kind := []string{"lsl", "lsr", "asr", "ror"}[r.Intn(4)]
			return fmt.Sprintf("r%d, %s #%d", reg(), kind, 1+r.Intn(31))
		}
	}
	lines = append(lines, "mov r7, #0x4000")
	n := 8 + r.Intn(10)
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0, 1:
			op := []string{"add", "sub", "rsb", "and", "orr", "eor", "bic"}[r.Intn(7)]
			s := []string{"", "s"}[r.Intn(2)]
			lines = append(lines, fmt.Sprintf("%s%s r%d, r%d, %s", op, s, reg(), reg(), op2()))
		case 2:
			op := []string{"adc", "sbc", "rsc"}[r.Intn(3)]
			lines = append(lines, fmt.Sprintf("%s r%d, r%d, %s", op, reg(), reg(), op2()))
		case 3:
			op := []string{"mov", "mvn"}[r.Intn(2)]
			s := []string{"", "s"}[r.Intn(2)]
			lines = append(lines, fmt.Sprintf("%s%s r%d, %s", op, s, reg(), op2()))
		case 4:
			op := []string{"cmp", "cmn", "tst", "teq"}[r.Intn(4)]
			lines = append(lines, fmt.Sprintf("%s r%d, %s", op, reg(), op2()))
		case 5:
			cond := []string{"eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc", "hi", "ls", "ge", "lt", "gt", "le"}[r.Intn(14)]
			lines = append(lines, fmt.Sprintf("mov%s r%d, #%d", cond, reg(), r.Intn(256)))
		case 6:
			if r.Intn(2) == 0 {
				lines = append(lines, fmt.Sprintf("mul r%d, r%d, r%d", reg(), reg(), reg()))
			} else {
				lines = append(lines, fmt.Sprintf("mla r%d, r%d, r%d, r%d", reg(), reg(), reg(), reg()))
			}
		case 7:
			sz := []string{"", "b"}[r.Intn(2)]
			lines = append(lines, fmt.Sprintf("str%s r%d, [r7, #%d]", sz, reg(), r.Intn(16)*4))
		case 8:
			sz := []string{"", "b"}[r.Intn(2)]
			lines = append(lines, fmt.Sprintf("ldr%s r%d, [r7, #%d]", sz, reg(), r.Intn(16)*4))
		case 9:
			lines = append(lines, fmt.Sprintf("ldr r%d, [r7, r%d]", reg(), reg()))
		}
	}
	lines = append(lines, "bx lr")
	return arm.MustParseSeq(strings.Join(lines, "; "))
}

// TestFuzzHandWrittenGuest: the QEMU-style and JIT backends must agree
// with native ARM interpretation on straight-line guests that use the full
// instruction repertoire (carry chains, shifter carries, predication) —
// shapes the compiler substrate never emits.
func TestFuzzHandWrittenGuest(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 20
	}
	r := rand.New(rand.NewSource(60606))
	for it := 0; it < iters; it++ {
		code := genHandGuest(r)
		g := &prog.ARM{Code: code}
		g.Funcs = []prog.Func{{Name: "f", Entry: 0, End: len(code)}}
		args := []uint32{r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()}
		if it%4 == 0 {
			corners := []uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff}
			for i := range args {
				args[i] = corners[r.Intn(len(corners))]
			}
		}
		_, nst, err := g.RunARM(nil, "f", args, 100000)
		if err != nil {
			t.Fatalf("iter %d native: %v\n%s", it, err, arm.Seq(code))
		}
		for _, backend := range []Backend{BackendQEMU, BackendJIT} {
			e := NewEngine(g, backend, nil)
			if _, err := e.Run("f", args, 1_000_000); err != nil {
				t.Fatalf("iter %d %s: %v\n%s", it, backend, err, arm.Seq(code))
			}
			for reg := arm.R0; reg <= arm.R10; reg++ {
				if got := e.readEnv(EnvReg(reg)); got != nst.R[reg] {
					t.Fatalf("iter %d %s args %v: r%d = %#x, native %#x\n%s",
						it, backend, args, reg, got, nst.R[reg], arm.Seq(code))
				}
			}
			for off := uint32(0); off < 64; off += 4 {
				if got, want := e.Mem().Read32(0x4000+off), nst.Mem.Read32(0x4000+off); got != want {
					t.Fatalf("iter %d %s: mem[%#x] = %#x, native %#x\n%s",
						it, backend, 0x4000+off, got, want, arm.Seq(code))
				}
			}
		}
	}
}

// genBranchyGuest builds a random multi-block guest with forward
// conditional branches and one bounded counted loop — the control-flow
// shapes that drive block chaining, the two-version flag dispatch, and
// rule application at block-terminating branches.
func genBranchyGuest(r *rand.Rand) []arm.Instr {
	reg := func() int { return []int{0, 1, 2, 3, 4, 5}[r.Intn(6)] }
	var code []arm.Instr
	emit := func(format string, args ...interface{}) {
		code = append(code, arm.MustParse(fmt.Sprintf(format, args...)))
	}
	straight := func() {
		n := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			switch r.Intn(5) {
			case 0:
				emit("add r%d, r%d, #%d", reg(), reg(), r.Intn(256))
			case 1:
				emit("sub%s r%d, r%d, r%d", []string{"", "s"}[r.Intn(2)], reg(), reg(), reg())
			case 2:
				emit("eor r%d, r%d, r%d, lsl #%d", reg(), reg(), reg(), 1+r.Intn(15))
			case 3:
				emit("cmp r%d, r%d", reg(), reg())
				cond := []string{"eq", "ne", "cs", "hi", "ge", "lt"}[r.Intn(6)]
				emit("mov%s r%d, #%d", cond, reg(), r.Intn(256))
			case 4:
				emit("and r%d, r%d, #%d", reg(), reg(), r.Intn(256))
			}
		}
	}

	// Bounded loop: r9 = 3..10; body; subs r9; bne loop-start.
	emit("mov r9, #%d", 3+r.Intn(8))
	loopStart := len(code)

	// A few blocks with forward conditional branches between them.
	nBlocks := 2 + r.Intn(3)
	var patches []int // indices of branches whose Target is a block id
	var blockStart []int
	for bl := 0; bl < nBlocks; bl++ {
		blockStart = append(blockStart, len(code))
		straight()
		if bl != nBlocks-1 {
			emit("cmp r%d, r%d", reg(), reg())
			cond := []string{"eq", "ne", "cs", "cc", "hi", "ls", "ge", "lt", "gt", "le", "mi", "vs"}[r.Intn(12)]
			emit("b%s 0", cond)
			code[len(code)-1].Target = int32(bl + 1 + r.Intn(nBlocks-bl-1)) // block id, patched below
			patches = append(patches, len(code)-1)
		}
	}
	blockStart = append(blockStart, len(code)) // loop tail
	for _, p := range patches {
		code[p].Target = int32(blockStart[code[p].Target])
	}

	emit("subs r9, r9, #1")
	emit("bne %d", loopStart)
	emit("bx lr")
	return code
}

// TestFuzzBranchyGuest: multi-block guests with conditional branches and a
// counted loop must produce identical register state under all three
// backends (rules backend gets flag-coupled branch rules, so §5's save +
// dispatch machinery runs on real control flow) and native interpretation.
func TestFuzzBranchyGuest(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 30
	}
	l := learn.NewLearner(nil)
	store := rules.NewStore()
	for _, pair := range [][2]string{
		{"cmp r0, r1; bne 2", "cmpl %ecx, %eax; jne 9"},
		{"subs r2, r0, r1", "movl %eax, %ebx; subl %ecx, %ebx"},
		{"add r2, r0, #100", "leal 100(%eax), %ebx"},
	} {
		rule, bucket := l.LearnOne(learnCand(pair[0], pair[1]))
		if rule == nil {
			t.Fatalf("rule not learned from %q: %v", pair[0], bucket)
		}
		store.Add(rule)
	}

	r := rand.New(rand.NewSource(424242))
	for it := 0; it < iters; it++ {
		code := genBranchyGuest(r)
		g := &prog.ARM{Code: code}
		g.Funcs = []prog.Func{{Name: "f", Entry: 0, End: len(code)}}
		args := []uint32{r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()}
		if it%4 == 0 {
			corners := []uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff}
			for i := range args {
				args[i] = corners[r.Intn(len(corners))]
			}
		}
		_, nst, err := g.RunARM(nil, "f", args, 100000)
		if err != nil {
			t.Fatalf("iter %d native: %v\n%s", it, err, arm.Seq(code))
		}
		for _, backend := range []Backend{BackendQEMU, BackendRules, BackendJIT} {
			var st *rules.Store
			if backend == BackendRules {
				st = store
			}
			e := NewEngine(g, backend, st)
			if _, err := e.Run("f", args, 1_000_000); err != nil {
				t.Fatalf("iter %d %s: %v\n%s", it, backend, err, arm.Seq(code))
			}
			for reg := arm.R0; reg <= arm.R9; reg++ {
				if got := e.readEnv(EnvReg(reg)); got != nst.R[reg] {
					t.Fatalf("iter %d %s args %v: r%d = %#x, native %#x\n%s",
						it, backend, args, reg, got, nst.R[reg], arm.Seq(code))
				}
			}
		}
	}
}
