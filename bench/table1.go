package bench

import (
	"fmt"
	"strings"

	"dbtrules/learn"
)

// FormatTable1 renders Table 1 as `experiments -table1` prints it and
// EXPERIMENTS.md quotes it: the column header, one row per benchmark
// (failure buckets, learned rules, learning time) and the aggregate
// phase shares against the paper's.
func FormatTable1(rows []*LearnResult) string {
	var b strings.Builder
	b.WriteString("            PL  KLoC |   #F prep (CI/PI/MB) | #F param (Num/Name/FailG) | #F verify (Rg/Mm/Br/Other) | #Rules  Time\n")
	var sums [learn.NumBuckets]int
	cands := 0
	for _, r := range rows {
		k := r.Buckets
		fmt.Fprintf(&b, "%-11s %-3s %5.1f | %6d %4d %5d | %8d %6d %8d | %6d %4d %4d %6d | %6d  %6.2fs\n",
			r.Name, r.Lang, r.KLoC,
			k[learn.PrepCI], k[learn.PrepPI], k[learn.PrepMB],
			k[learn.ParamNum], k[learn.ParamName], k[learn.ParamFailG],
			k[learn.VerifyRg], k[learn.VerifyMm], k[learn.VerifyBr], k[learn.VerifyOther],
			k[learn.Learned], r.Time.Seconds())
		for i := range sums {
			sums[i] += k[i]
		}
		cands += r.Candidates
	}
	pct := func(buckets ...learn.Bucket) float64 {
		n := 0
		for _, k := range buckets {
			n += sums[k]
		}
		return 100 * float64(n) / float64(cands)
	}
	fmt.Fprintf(&b, "aggregate: prep %.0f%%  param %.0f%%  verify %.0f%%  yield %.0f%%  (paper: 43%% / 19%% / 14%% / 24%%)\n",
		pct(learn.PrepCI, learn.PrepPI, learn.PrepMB),
		pct(learn.ParamNum, learn.ParamName, learn.ParamFailG),
		pct(learn.VerifyRg, learn.VerifyMm, learn.VerifyBr, learn.VerifyOther),
		pct(learn.Learned))
	return b.String()
}
