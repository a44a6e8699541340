// Command benchcmp judges a change against its parent commit from the
// results.json files the repository benchmark writes (benchmark/README.md).
// Run `sh benchmark/run.sh -trace 0` N times on each commit, alternating
// which goes first, keep each out/results.json, and pass them in order:
// file i of -parent and file i of -change are one pair.
//
//	benchcmp -manifest BENCHMARK.json -parent p1.json,...,pN.json -change c1.json,...,cN.json
//
// For every workload x end-to-end metric of the untraced runs it prints
// both medians, how much worse the change is in the metric's declared
// direction, the declared bound, the parent's inter-quartile spread, the
// pairs won / lost / tied, and a verdict by the rules of the
// simplicity-review guide; plus the failed share of operations per side.
// It exits 1 on any "regressed" or a larger failed share, 2 on bad input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// declared is one end-to-end metric of the manifest.
type declared struct {
	Name, Unit, Better string
	Bound              float64
}

type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []declared `json:"end_to_end"`
}

// side is one commit's untraced runs, one per workload per file.
type side struct {
	files       int
	values      map[string][]float64 // "workload/metric" -> one value per file, in file order
	failed, ops map[string]int       // per workload, summed over the files
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func load(paths string) (*side, error) {
	s := &side{values: map[string][]float64{}, failed: map[string]int{}, ops: map[string]int{}}
	for _, path := range strings.Split(paths, ",") {
		var file struct {
			Runs []struct {
				Workload  string
				Traced    bool
				Ops       int
				FailedOps int `json:"failed_ops"`
				EndToEnd  []struct {
					Name  string
					Value float64
				} `json:"end_to_end"`
			}
		}
		if err := readJSON(path, &file); err != nil {
			return nil, err
		}
		s.files++
		for _, r := range file.Runs {
			if r.Traced {
				continue
			}
			s.failed[r.Workload] += r.FailedOps
			s.ops[r.Workload] += r.Ops
			for _, m := range r.EndToEnd {
				key := r.Workload + "/" + m.Name
				s.values[key] = append(s.values[key], m.Value)
			}
		}
	}
	return s, nil
}

// quantile of sorted values, linearly interpolated.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// judge compares the paired values of one metric and returns the table
// cells after the unit, and the verdict. gain: the change wins at least
// nine tenths of all pairs and the medians differ by more than the
// parent's inter-quartile spread. unresolved: that spread is wider than
// the bound, so neither "regressed" nor "unchanged" can be read off,
// unless every change run is better than every parent run. regressed:
// the change's median is worse than the parent's by more than the bound.
func judge(d declared, parent, change []float64) (cells, verdict string) {
	sign := 1.0 // worse = larger
	if d.Better == "higher" {
		sign = -1
	}
	won, lost := 0, 0
	for i := range parent {
		switch diff := sign * (change[i] - parent[i]); {
		case diff < 0:
			won++
		case diff > 0:
			lost++
		}
	}
	p, c := append([]float64(nil), parent...), append([]float64(nil), change...)
	sort.Float64s(p)
	sort.Float64s(c)
	pm, cm := quantile(p, 0.5), quantile(c, 0.5)
	iqr := quantile(p, 0.75) - quantile(p, 0.25)
	worse := sign * (cm - pm) // in the metric's unit; negative = better
	// Every change run better than every parent run; on sorted values one
	// of the two comparisons is the binding one, whichever the direction.
	allBetter := sign*(c[0]-p[len(p)-1]) < 0 && sign*(c[len(c)-1]-p[0]) < 0
	switch {
	case 10*won >= 9*len(parent) && -worse > iqr:
		verdict = "gain"
	case iqr > d.Bound*math.Abs(pm) && !allBetter:
		verdict = "unresolved"
	case worse > d.Bound*math.Abs(pm):
		verdict = "regressed"
	default:
		verdict = "ok"
	}
	cells = fmt.Sprintf("%.4f | %.4f | %+.2f%% | %.0f%% | %.2f%% | %d/%d/%d",
		pm, cm, 100*worse/math.Abs(pm), 100*d.Bound, 100*iqr/math.Abs(pm), won, lost, len(parent)-won-lost)
	return cells, verdict
}

// compare prints the verdict table and reports whether the change fails.
// A workload no file ran is skipped; one that any file ran must have
// every declared metric exactly once in every file of both sides.
func compare(w io.Writer, m *manifest, parent, change *side) (bad bool, err error) {
	fmt.Fprintln(w, "| workload | metric | unit | parent median | change median | worse by | bound | parent IQR | pairs won/lost/tied | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	for _, wl := range m.Workloads {
		_, ranP := parent.ops[wl.Name]
		_, ranC := change.ops[wl.Name]
		if !ranP && !ranC {
			continue
		}
		for _, d := range m.EndToEnd {
			pv, cv := parent.values[wl.Name+"/"+d.Name], change.values[wl.Name+"/"+d.Name]
			if parent.files != change.files || len(pv) != parent.files || len(cv) != change.files {
				return false, fmt.Errorf("%s %s: parent has %d values in %d files, change %d in %d; want one per file and as many files",
					wl.Name, d.Name, len(pv), parent.files, len(cv), change.files)
			}
			cells, verdict := judge(d, pv, cv)
			bad = bad || verdict == "regressed"
			fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n", wl.Name, d.Name, d.Unit, cells, verdict)
		}
		pf, po, cf, co := parent.failed[wl.Name], parent.ops[wl.Name], change.failed[wl.Name], change.ops[wl.Name]
		verdict := "ok"
		if cf*po > pf*co { // cf/co > pf/po
			verdict, bad = "more failed", true
		}
		fmt.Fprintf(w, "| %s | failed_ops / ops | count | %d/%d | %d/%d | | | | | %s |\n", wl.Name, pf, po, cf, co, verdict)
	}
	return bad, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	manifestPath := fs.String("manifest", "BENCHMARK.json", "the benchmark manifest: metric directions and bounds")
	parentPaths := fs.String("parent", "", "comma-separated results.json files of the parent commit, one per pair")
	changePaths := fs.String("change", "", "comma-separated results.json files of the change, in the same pair order")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 2
	}
	var m manifest
	if err := readJSON(*manifestPath, &m); err != nil {
		return fail(err)
	}
	parent, err := load(*parentPaths)
	if err != nil {
		return fail(err)
	}
	change, err := load(*changePaths)
	if err != nil {
		return fail(err)
	}
	bad, err := compare(stdout, &m, parent, change)
	if err != nil {
		return fail(err)
	}
	if bad {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
