// Package-level benchmarks: one per table and figure of the paper's
// evaluation, plus the ablation benches DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// The root package is documentation-only; benchmarks report the reproduced headline metrics through
// testing.B.ReportMetric (speedups as "x", coverage/reduction as "%").
package dbtrules_test

import (
	"testing"

	"dbtrules/arm"
	"dbtrules/bench"
	"dbtrules/bitblast"
	"dbtrules/codegen"
	"dbtrules/corpus"
	"dbtrules/dbt"
	"dbtrules/expr"
	"dbtrules/learn"
	"dbtrules/rules"
)

// BenchmarkTable1Learning regenerates Table 1: the full-corpus learning
// pass, reporting total rules, yield, and per-rule learning time.
func BenchmarkTable1Learning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		totalRules, totalCands := 0, 0
		for j := range corpus.All() {
			bm := &corpus.All()[j]
			r, err := bench.LearnBenchmark(bm, codegen.StyleLLVM, 2)
			if err != nil {
				b.Fatal(err)
			}
			totalRules += r.Buckets[learn.Learned]
			totalCands += r.Candidates
		}
		b.ReportMetric(float64(totalRules), "rules")
		b.ReportMetric(100*float64(totalRules)/float64(totalCands), "yield%")
	}
}

// BenchmarkFig6OptLevels regenerates Figure 6: rules learned per
// optimization level across the corpus.
func BenchmarkFig6OptLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		counts, err := bench.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		var o0, o2 int
		for _, c := range counts {
			o0 += c[0]
			o2 += c[2]
		}
		b.ReportMetric(float64(o0), "rules-O0")
		b.ReportMetric(float64(o2), "rules-O2")
	}
}

func reportPerf(b *testing.B, rows []*bench.PerfRow) {
	b.Helper()
	var rs, js, trs, tjs []float64
	for _, r := range rows {
		rs = append(rs, r.RulesSpeedup)
		js = append(js, r.JITSpeedup)
		trs = append(trs, r.TestRulesSpeedup)
		tjs = append(tjs, r.TestJITSpeedup)
	}
	b.ReportMetric(bench.GeoMean(rs), "rules-ref-x")
	b.ReportMetric(bench.GeoMean(js), "jit-ref-x")
	b.ReportMetric(bench.GeoMean(trs), "rules-test-x")
	b.ReportMetric(bench.GeoMean(tjs), "jit-test-x")
}

// BenchmarkFig8SpeedupLLVM regenerates Figure 8 (LLVM-built guests).
func BenchmarkFig8SpeedupLLVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.PerfBoth(codegen.StyleLLVM)
		if err != nil {
			b.Fatal(err)
		}
		reportPerf(b, rows)
	}
}

// BenchmarkFig9SpeedupGCC regenerates Figure 9 (GCC-built guests under
// LLVM-learned rules: the compiler-insensitivity experiment).
func BenchmarkFig9SpeedupGCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.PerfBoth(codegen.StyleGCC)
		if err != nil {
			b.Fatal(err)
		}
		reportPerf(b, rows)
	}
}

// runRefWithRules is the shared core of the Figure 10–12 benches.
func runRefWithRules(b *testing.B, name string) *bench.PerfRow {
	b.Helper()
	bm, _ := corpus.ByName(name)
	store, err := bench.LeaveOneOut(name)
	if err != nil {
		b.Fatal(err)
	}
	qemu, err := bench.RunOne(bm, codegen.StyleLLVM, dbt.BackendQEMU, nil, "ref")
	if err != nil {
		b.Fatal(err)
	}
	ruled, err := bench.RunOne(bm, codegen.StyleLLVM, dbt.BackendRules, store, "ref")
	if err != nil {
		b.Fatal(err)
	}
	return &bench.PerfRow{
		Name: name, QEMU: qemu, Rules: ruled,
		RulesSpeedup: bench.Speedup(qemu, ruled),
		DynReduction: 1 - float64(ruled.Stats.HostInstrs)/float64(qemu.Stats.HostInstrs),
	}
}

// BenchmarkFig10DynReduction regenerates Figure 10's metric on mcf.
func BenchmarkFig10DynReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := runRefWithRules(b, "mcf")
		b.ReportMetric(100*row.DynReduction, "reduced%")
	}
}

// BenchmarkFig11Coverage regenerates Figure 11's Sp/Dp on mcf.
func BenchmarkFig11Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := runRefWithRules(b, "mcf")
		st := row.Rules.Stats
		b.ReportMetric(100*float64(st.StaticCovered)/float64(st.StaticTotal), "Sp%")
		b.ReportMetric(100*float64(st.DynCovered)/float64(st.DynTotal), "Dp%")
	}
}

// BenchmarkFig12RuleLengths regenerates Figure 12's distribution on mcf,
// reporting the share of hits with guest length >= 2.
func BenchmarkFig12RuleLengths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := runRefWithRules(b, "mcf")
		var total, multi uint64
		for l, n := range row.Rules.Stats.RuleHitsByLen {
			total += n
			if l >= 2 {
				multi += n
			}
		}
		if total > 0 {
			b.ReportMetric(100*float64(multi)/float64(total), "len2+%")
		}
	}
}

// --- ablations (DESIGN.md §5) ---------------------------------------------

func ablationStore(b *testing.B) *rules.Store {
	b.Helper()
	store, err := bench.LeaveOneOut("mcf")
	if err != nil {
		b.Fatal(err)
	}
	return store
}

// BenchmarkAblationHashKeyMean measures §4's mean-of-opcodes bucket lookup.
func BenchmarkAblationHashKeyMean(b *testing.B) {
	store := ablationStore(b)
	window := arm.MustParseSeq("add r1, r1, r0; sub r1, r1, #1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Lookup(window)
	}
}

// BenchmarkAblationHashKeyFull compares against a full-pattern string map
// (the "more sophisticated hash schemes" the paper defers).
func BenchmarkAblationHashKeyFull(b *testing.B) {
	store := ablationStore(b)
	byPattern := map[string]*rules.Rule{}
	for _, r := range store.All() {
		byPattern[arm.Seq(r.Guest)] = r
	}
	window := arm.MustParseSeq("add r1, r1, r0; sub r1, r1, #1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Exact-string lookup cannot bind parameters; this measures only
		// the hashing cost difference.
		_ = byPattern[arm.Seq(window)]
	}
}

func ablationEngineRun(b *testing.B, configure func(*dbt.Engine)) float64 {
	b.Helper()
	bm, _ := corpus.ByName("mcf")
	store := ablationStore(b)
	g, _, err := bench.CompilePair(bm, codegen.StyleLLVM, 2)
	if err != nil {
		b.Fatal(err)
	}
	base := dbt.NewEngine(g, dbt.BackendQEMU, nil)
	if _, err := base.Run("bench", []uint32{uint32(bm.TestN), 12345}, 4_000_000_000); err != nil {
		b.Fatal(err)
	}
	e := dbt.NewEngine(g, dbt.BackendRules, store)
	configure(e)
	if _, err := e.Run("bench", []uint32{uint32(bm.TestN), 12345}, 4_000_000_000); err != nil {
		b.Fatal(err)
	}
	return float64(base.Stats.TotalCycles()) / float64(e.Stats.TotalCycles())
}

// BenchmarkAblationMatchLongest is §4's longest-match-first application.
func BenchmarkAblationMatchLongest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationEngineRun(b, func(e *dbt.Engine) {}), "speedup-x")
	}
}

// BenchmarkAblationMatchShortest flips to shortest-first.
func BenchmarkAblationMatchShortest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationEngineRun(b, func(e *dbt.Engine) { e.ShortestMatch = true }), "speedup-x")
	}
}

// BenchmarkAblationCondCodesSave is the §5 host-flag-save machinery.
func BenchmarkAblationCondCodesSave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationEngineRun(b, func(e *dbt.Engine) {}), "speedup-x")
	}
}

// BenchmarkAblationCondCodesNoSave disables it: flag-writing rules fall
// back to the baseline translator.
func BenchmarkAblationCondCodesNoSave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationEngineRun(b, func(e *dbt.Engine) { e.DisableRuleFlagSave = true }), "speedup-x")
	}
}

// BenchmarkAblationRuleSelectFewest is §6.1's fewest-host-instructions
// redundant-rule policy.
func BenchmarkAblationRuleSelectFewest(b *testing.B) {
	benchRuleSelect(b, false)
}

// BenchmarkAblationRuleSelectFirst keeps the first-learned rule instead.
func BenchmarkAblationRuleSelectFirst(b *testing.B) {
	benchRuleSelect(b, true)
}

func benchRuleSelect(b *testing.B, preferFirst bool) {
	var all []*rules.Rule
	for i := range corpus.All() {
		bm := &corpus.All()[i]
		if bm.Name == "mcf" {
			continue
		}
		r, err := bench.LearnBenchmark(bm, codegen.StyleLLVM, 2)
		if err != nil {
			b.Fatal(err)
		}
		all = append(all, r.Rules...)
	}
	for i := 0; i < b.N; i++ {
		store := rules.NewStore()
		store.PreferFirst = preferFirst
		for _, r := range all {
			store.Add(r)
		}
		bm, _ := corpus.ByName("mcf")
		g, _, err := bench.CompilePair(bm, codegen.StyleLLVM, 2)
		if err != nil {
			b.Fatal(err)
		}
		e := dbt.NewEngine(g, dbt.BackendRules, store)
		if _, err := e.Run("bench", []uint32{uint32(bm.TestN), 12345}, 4_000_000_000); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(e.Stats.HostInstrs), "host-instrs")
	}
}

// BenchmarkAblationVerifyStructural measures the equivalence ladder's
// first rung alone (canonical comparison).
func BenchmarkAblationVerifyStructural(b *testing.B) {
	x := expr.Sym(32, "x")
	y := expr.Sym(32, "y")
	a1 := expr.Sub(expr.Add(x, y), expr.Const(32, 1))
	a2 := expr.Add(expr.Add(x, y), expr.Const(32, 0xffffffff))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !expr.Equal(a1, a2) {
			b.Fatal("should be structurally equal")
		}
	}
}

// BenchmarkAblationVerifyRefute measures the randomized-refutation rung.
func BenchmarkAblationVerifyRefute(b *testing.B) {
	x := expr.Sym(32, "x")
	a1 := expr.Ult(x, expr.Const(32, 0xff))
	a2 := expr.Ule(x, expr.Const(32, 0xff))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bitblast.Refute(a1, a2, 64, int64(i+1)) == nil {
			b.Fatal("refutation should find x=0xff")
		}
	}
}

// BenchmarkAblationVerifySAT measures the full SAT rung on a query the
// earlier rungs cannot decide.
func BenchmarkAblationVerifySAT(b *testing.B) {
	x := expr.Sym(32, "x")
	y := expr.Sym(32, "y")
	a1 := expr.Xor(x, y)
	a2 := expr.Sub(expr.Or(x, y), expr.And(x, y))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := bitblast.Equiv(a1, a2, &bitblast.Options{Seed: int64(i + 1)})
		if v != bitblast.Equivalent {
			b.Fatalf("verdict %v", v)
		}
	}
}

// BenchmarkAblationChainingOn measures the block-chained dispatcher.
func BenchmarkAblationChainingOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationEngineRun(b, func(e *dbt.Engine) {}), "speedup-x")
	}
}

// BenchmarkAblationChainingOff measures the lookup-every-block dispatcher.
func BenchmarkAblationChainingOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationEngineRun(b, func(e *dbt.Engine) { e.DisableChaining = true }), "speedup-x")
	}
}

// combinedAblationRun measures the mcf speedup over QEMU with rules
// learned from the rest of the corpus at a given line-combining depth.
func combinedAblationRun(b *testing.B, combine int) float64 {
	b.Helper()
	store := rules.NewStore()
	for i := range corpus.All() {
		bm := &corpus.All()[i]
		if bm.Name == "mcf" {
			continue
		}
		r, err := bench.LearnBenchmarkOpts(bm, codegen.StyleLLVM, 2,
			&learn.Options{CombineLines: combine})
		if err != nil {
			b.Fatal(err)
		}
		for _, rule := range r.Rules {
			store.Add(rule)
		}
	}
	bm, _ := corpus.ByName("mcf")
	g, _, err := bench.CompilePair(bm, codegen.StyleLLVM, 2)
	if err != nil {
		b.Fatal(err)
	}
	base := dbt.NewEngine(g, dbt.BackendQEMU, nil)
	if _, err := base.Run("bench", []uint32{uint32(bm.TestN), 12345}, 4_000_000_000); err != nil {
		b.Fatal(err)
	}
	e := dbt.NewEngine(g, dbt.BackendRules, store)
	if _, err := e.Run("bench", []uint32{uint32(bm.TestN), 12345}, 4_000_000_000); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(store.MaxLen()), "max-rule-len")
	return float64(base.Stats.TotalCycles()) / float64(e.Stats.TotalCycles())
}

// BenchmarkAblationCombineLines1 is the paper's per-line extraction.
func BenchmarkAblationCombineLines1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(combinedAblationRun(b, 1), "speedup-x")
	}
}

// BenchmarkAblationCombineLines3 adds the adjacent-line combining
// extension (up to 3 lines per candidate).
func BenchmarkAblationCombineLines3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(combinedAblationRun(b, 3), "speedup-x")
	}
}
