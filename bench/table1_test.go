package bench

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var updateTable1 = flag.Bool("update", false, "rewrite the Table 1 block in EXPERIMENTS.md")

// table1Block finds the fenced block under EXPERIMENTS.md's Table 1
// heading and returns the document split around the block's contents.
func table1Block(t *testing.T, doc string) (before, block, after string) {
	t.Helper()
	head := strings.Index(doc, "## Table 1")
	if head < 0 {
		t.Fatal("EXPERIMENTS.md has no Table 1 section")
	}
	open := strings.Index(doc[head:], "```\n")
	if open < 0 {
		t.Fatal("Table 1 section has no fenced block")
	}
	start := head + open + len("```\n")
	end := strings.Index(doc[start:], "```\n")
	if end < 0 {
		t.Fatal("Table 1 block is not closed")
	}
	return doc[:start], doc[start : start+end], doc[start+end:]
}

// timeColumn is the learning-time column of a Table 1 row, the one
// figure that differs from run to run.
var timeColumn = regexp.MustCompile(`(?m)\s+[0-9.]+s$`)

// TestTable1MatchesExperiments keeps EXPERIMENTS.md's Table 1 the table
// `experiments -table1` prints, apart from the learning times. Run with
// -update to rewrite the block from a fresh run.
func TestTable1MatchesExperiments(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	got := FormatTable1(rows)
	const path = "../EXPERIMENTS.md"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, block, after := table1Block(t, string(raw))
	if *updateTable1 {
		if err := os.WriteFile(path, []byte(before+got+after), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if timeColumn.ReplaceAllString(block, "") != timeColumn.ReplaceAllString(got, "") {
		t.Errorf("EXPERIMENTS.md Table 1 is stale (go test ./bench -run TestTable1MatchesExperiments -update rewrites it)\ndocument:\n%s\nexperiments -table1:\n%s", block, got)
	}
}
