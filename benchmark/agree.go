package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is the part of BENCHMARK.json the program reads: which
// metrics are declared, their units, directions and regression bounds.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(d declared, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// runAgree is the benchmark's self-check: two full untraced sets of the
// same code, back to back, must agree on every workload x end-to-end
// metric within the bound BENCHMARK.json declares for it (in either
// direction, since neither set is the baseline).
func runAgree(picked []workload, seed uint64, seconds float64, manifestPath, expectedPath string) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var sets [2][]*runResult
	for s := range sets {
		for i := range picked {
			r, err := runWorkload(&picked[i], seed, seconds, false, expectedPath, fullSize)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "set %d: %s done in %.1fs, failed_ops %d\n", s+1, r.Workload, r.WallS, r.FailedOps)
			sets[s] = append(sets[s], r)
		}
	}
	env := currentEnvironment()
	fmt.Printf("cpu: %s, nproc %d, GOMAXPROCS %d, %s %s/%s, seed %d, %.0fs per run\n\n",
		env.CPUModel, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.GOOS, env.GOARCH, seed, seconds)
	fmt.Println("| workload | metric | unit | set 1 | set 2 | difference | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	bad := 0
	for i := range picked {
		a, b := sets[0][i], sets[1][i]
		if a.FailedOps+b.FailedOps > 0 {
			bad++
			fmt.Printf("| %s | failed_ops | count | %d | %d | | 0 | FAILED |\n", a.Workload, a.FailedOps, b.FailedOps)
		}
		for _, d := range m.EndToEnd {
			ma, oka := a.metric(d.Name)
			mb, okb := b.metric(d.Name)
			if !oka || !okb {
				bad++
				fmt.Printf("| %s | %s | %s | | | | %.0f%% | MISSING |\n", a.Workload, d.Name, d.Unit, 100*d.Bound)
				continue
			}
			diff := max(worseBy(d, ma.Value, mb.Value), worseBy(d, mb.Value, ma.Value))
			verdict := "ok"
			if diff > d.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %.2f%% | %.0f%% | %s |\n",
				a.Workload, d.Name, d.Unit, ma.Value, mb.Value, 100*diff, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d pairs disagree beyond their bound\n", bad)
		return 1
	}
	fmt.Println("\nevery pair agrees within its bound")
	return 0
}
