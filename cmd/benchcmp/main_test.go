package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// files names the first n results files of one fixture directory.
func files(dir string, n int) string {
	var paths []string
	for i := 1; i <= n; i++ {
		paths = append(paths, fmt.Sprintf("testdata/%s/%d.json", dir, i))
	}
	return strings.Join(paths, ",")
}

// benchcmp runs the command over the fixtures and returns its exit code,
// the verdict of every table row keyed by metric, and standard error.
func benchcmp(t *testing.T, parent, change string) (code int, verdicts map[string]string, rows map[string]string, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run([]string{"-manifest", "testdata/manifest.json", "-parent", parent, "-change", change}, &out, &errb)
	verdicts, rows = map[string]string{}, map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 12 || strings.TrimSpace(cells[1]) != "w" {
			continue
		}
		metric := strings.TrimSpace(cells[2])
		verdicts[metric] = strings.TrimSpace(cells[10])
		rows[metric] = line
	}
	return code, verdicts, rows, errb.String()
}

// TestVerdicts: ten pairs in which each metric is built for one verdict.
// The traced run in parent/1.json must be ignored (it would otherwise
// count as a second run of the workload and be refused).
func TestVerdicts(t *testing.T) {
	code, got, rows, stderr := benchcmp(t, files("parent", 10), files("change", 10))
	if code != 0 {
		t.Fatalf("exit %d, want 0 (no regressed row); stderr: %s", code, stderr)
	}
	want := map[string]string{
		"lat_ms":           "gain",       // lower is better: 10/10 pairs, medians 10% apart, IQR 0.7%
		"tput":             "gain",       // higher is better: the larger value wins
		"eight_ms":         "ok",         // medians 4.7% apart but only 8/10 pairs won: not a gain
		"noisy_ms":         "unresolved", // 10% worse than a 5% bound, but the parent's own spread is 17.5%
		"flat_ms":          "ok",         // ten ties
		"failed_ops / ops": "ok",
	}
	for metric, v := range want {
		if got[metric] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, got[metric], v, rows[metric])
		}
	}
	if len(got) != len(want) {
		t.Errorf("rows %v, want exactly %d (the workload nobody ran is skipped)", got, len(want))
	}
	for metric, cell := range map[string]string{"lat_ms": "10/0/0", "eight_ms": "8/2/0", "flat_ms": "0/0/10", "tput": "-10.00%"} {
		if !strings.Contains(rows[metric], cell) {
			t.Errorf("%s: row lacks %q\n%s", metric, cell, rows[metric])
		}
	}
}

// TestRegressedExitsOne: a tight parent spread and a median worse than
// the bound is a regression in either direction, and fails the command.
func TestRegressedExitsOne(t *testing.T) {
	code, got, rows, _ := benchcmp(t, files("parent", 4), files("regressed", 4))
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	for _, metric := range []string{"lat_ms", "tput"} { // 20% slower; 25% less throughput
		if got[metric] != "regressed" {
			t.Errorf("%s: verdict %q, want regressed\n%s", metric, got[metric], rows[metric])
		}
	}
	if got["flat_ms"] != "ok" || got["eight_ms"] != "ok" {
		t.Errorf("untouched metrics: %v", got)
	}
}

// TestSameRunsAgree is the -agree property: one set of runs against
// itself has no gain and no regression.
func TestSameRunsAgree(t *testing.T) {
	code, got, _, _ := benchcmp(t, files("parent", 10), files("parent", 10))
	if code != 0 {
		t.Errorf("exit %d, want 0", code)
	}
	for metric, v := range got {
		if v == "gain" || v == "regressed" {
			t.Errorf("%s: verdict %q comparing a side with itself", metric, v)
		}
	}
}

// TestMissingMetricIsAnError: a metric absent on one side must not read
// as a pass.
func TestMissingMetricIsAnError(t *testing.T) {
	code, _, _, stderr := benchcmp(t, files("parent", 1), files("missing", 1))
	if code != 2 || !strings.Contains(stderr, "flat_ms") {
		t.Errorf("exit %d, stderr %q; want 2 and the missing metric named", code, stderr)
	}
	if code, _, _, _ := benchcmp(t, files("parent", 2), files("change", 1)); code != 2 {
		t.Errorf("unequal pair counts: exit %d, want 2", code)
	}
}

// TestLargerFailedShareExitsOne: same timings, one more failed operation.
func TestLargerFailedShareExitsOne(t *testing.T) {
	code, got, rows, _ := benchcmp(t, files("parent", 2), files("failed", 2))
	if code != 1 || got["failed_ops / ops"] != "more failed" {
		t.Errorf("exit %d, failed row %q; want 1 and \"more failed\"\n%s", code, got["failed_ops / ops"], rows["failed_ops / ops"])
	}
	if !strings.Contains(rows["failed_ops / ops"], "0/400 | 1/400") {
		t.Errorf("failed shares not printed per side:\n%s", rows["failed_ops / ops"])
	}
}
