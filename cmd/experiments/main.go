// Command experiments regenerates the paper's tables and figures on the
// synthetic substrate and prints them in the paper's layout.
//
// Usage:
//
//	experiments -table1
//	experiments -fig6 | -fig7 | -fig8 | -fig9 | -fig10 | -fig11 | -fig12
//	experiments -all
package main

import (
	"flag"
	"fmt"
	"os"

	"dbtrules/bench"
	"dbtrules/codegen"
	"dbtrules/corpus"
)

func main() {
	table1 := flag.Bool("table1", false, "learning results (Table 1)")
	fig6 := flag.Bool("fig6", false, "rules per optimization level (Figure 6)")
	fig7 := flag.Bool("fig7", false, "O0-vs-O2 learnability case study (Figure 7)")
	fig8 := flag.Bool("fig8", false, "speedups, LLVM guests (Figure 8)")
	fig9 := flag.Bool("fig9", false, "speedups, GCC guests (Figure 9)")
	fig10 := flag.Bool("fig10", false, "dynamic host instr reduction (Figure 10)")
	fig11 := flag.Bool("fig11", false, "static/dynamic coverage (Figure 11)")
	fig12 := flag.Bool("fig12", false, "hit-rule length distribution (Figure 12)")
	all := flag.Bool("all", false, "everything")
	flag.Parse()

	any := *table1 || *fig6 || *fig7 || *fig8 || *fig9 || *fig10 || *fig11 || *fig12 || *all
	if !any {
		flag.Usage()
		os.Exit(2)
	}
	if *table1 || *all {
		runTable1()
	}
	if *fig6 || *all {
		runFig6()
	}
	if *fig7 || *all {
		runFig7()
	}
	var llvmRef []*bench.PerfRow
	if *fig8 || *fig10 || *fig11 || *fig12 || *all {
		llvmRef = runFig8()
	}
	if *fig9 || *all {
		runFig9()
	}
	if *fig10 || *all {
		runFig10(llvmRef)
	}
	if *fig11 || *all {
		runFig11(llvmRef)
	}
	if *fig12 || *all {
		runFig12(llvmRef)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func runTable1() {
	rows, err := bench.Table1()
	if err != nil {
		die(err)
	}
	fmt.Println("Table 1. Learning results (synthetic corpus, llvm-O2).")
	fmt.Print(bench.FormatTable1(rows))
	var vs float64
	for _, r := range rows {
		vs += r.VerifyShare
	}
	fmt.Printf("verification share of learning time: %.0f%% (paper: ~95%%)\n", 100*vs/float64(len(rows)))
}

func runFig6() {
	counts, err := bench.Fig6()
	if err != nil {
		die(err)
	}
	fmt.Println("\nFigure 6. Rules learned per optimization level.")
	fmt.Println("             -O0   -O1   -O2")
	for i := range corpus.All() {
		name := corpus.All()[i].Name
		c := counts[name]
		fmt.Printf("%-11s %5d %5d %5d\n", name, c[0], c[1], c[2])
	}
}

func runFig7() {
	fmt.Println("\nFigure 7. A line learnable at -O2 but not at -O0.")
	r, err := bench.Fig7Case()
	if err != nil {
		die(err)
	}
	fmt.Println(r)
}

func perfReport(title string, rows []*bench.PerfRow) {
	fmt.Printf("\n%s\n", title)
	fmt.Println("             rules(test) jit(test)  rules(ref)  jit(ref) -- speedup over qemu")
	var rt, jt, rr, jr []float64
	for _, row := range rows {
		fmt.Printf("%-11s ", row.Name)
		fmt.Printf("    %6.2fx   %6.2fx", row.TestRulesSpeedup, row.TestJITSpeedup)
		fmt.Printf("     %6.2fx   %6.2fx\n", row.RulesSpeedup, row.JITSpeedup)
		rt = append(rt, row.TestRulesSpeedup)
		jt = append(jt, row.TestJITSpeedup)
		rr = append(rr, row.RulesSpeedup)
		jr = append(jr, row.JITSpeedup)
	}
	fmt.Printf("%-11s     %6.2fx   %6.2fx     %6.2fx   %6.2fx\n",
		"geomean", bench.GeoMean(rt), bench.GeoMean(jt), bench.GeoMean(rr), bench.GeoMean(jr))
}

func runFig8() []*bench.PerfRow {
	rows, err := bench.PerfBoth(codegen.StyleLLVM)
	if err != nil {
		die(err)
	}
	perfReport("Figure 8. Speedup over QEMU, guest binaries built by LLVM-style compiler.", rows)
	return rows
}

func runFig9() {
	rows, err := bench.PerfBoth(codegen.StyleGCC)
	if err != nil {
		die(err)
	}
	perfReport("Figure 9. Speedup over QEMU, guest binaries built by GCC-style compiler.", rows)
}

func runFig10(rows []*bench.PerfRow) {
	fmt.Println("\nFigure 10. Dynamic host instructions reduced by the rules (ref).")
	var vals []float64
	for _, r := range rows {
		fmt.Printf("%-11s %5.1f%%\n", r.Name, 100*r.DynReduction)
		vals = append(vals, 1-r.DynReduction)
	}
	fmt.Printf("%-11s %5.1f%% (paper: 34%%)\n", "average", 100*(1-bench.GeoMean(vals)))
}

func runFig11(rows []*bench.PerfRow) {
	fmt.Println("\nFigure 11. Static (Sp) and dynamic (Dp) coverage of rules (ref).")
	for _, r := range rows {
		fmt.Printf("%-11s Sp=%5.1f%%  Dp=%5.1f%%\n", r.Name, 100*r.StaticCoverage, 100*r.DynCoverage)
	}
}

func runFig12(rows []*bench.PerfRow) {
	dist := bench.Fig12(rows)
	fmt.Println("\nFigure 12. Length distribution of hit translation rules (ref).")
	var total uint64
	for _, n := range dist {
		total += n
	}
	for _, l := range bench.SortedLens(dist) {
		fmt.Printf("len %d: %6d hits (%.1f%%)\n", l, dist[l], 100*float64(dist[l])/float64(total))
	}
}
