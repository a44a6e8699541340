package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"testing"

	"dbtrules/corpus"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it: none below 21 samples, p90 at 100, p99 at 1000.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: the rule must sort
		}
		return out
	}
	for _, c := range []struct {
		n, pct int
		value  float64
	}{
		{20, 0, 0},
		{21, 52, 11},
		{50, 80, 40},
		{100, 90, 90},
		{1000, 99, 990},
	} {
		pct, v := tailPercentile(seq(c.n))
		if pct != c.pct || v != c.value {
			t.Errorf("n=%d: got p%d = %v, want p%d = %v", c.n, pct, v, c.pct, c.value)
		}
		if c.pct > 0 {
			if beyond := c.n - int(v); beyond != tailSamples {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailSamples)
			}
		}
	}
	s := summarize(seq(100))
	if s.N != 100 || s.Median != 50.5 || s.Min != 1 || s.Max != 100 || s.TailPct != 90 {
		t.Errorf("summarize: %+v", s)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

// A layer's self time is its span minus the part its children cover;
// children on different goroutines may overlap and count once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a by 10
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 130}, // outlives the parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 25, 3: 30, 4: 5, 5: 40} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// The budget of an operation counts descendants only inside the root's
// interval and reports the root's own self time separately.
func TestLayerBudget(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 100, End: 200},
		{ID: 2, Parent: 1, Name: "wait", Start: 110, End: 190},
		{ID: 3, Parent: 2, Name: "poll", Start: 50, End: 130}, // parked before the op began
		{ID: 4, Parent: 2, Name: "verify", Start: 130, End: 180},
		{ID: 5, Parent: 0, Name: "other-root", Start: 0, End: 1000},
		{ID: 6, Parent: 0, Name: "op", Start: 300, End: 400},
	}
	parts, perOp, ops := layerBudget(spans, "op", "rest")
	if ops != 2 || perOp != 100e-6 {
		t.Fatalf("ops %d, %v ms per op; want 2 and 1e-4", ops, perOp)
	}
	got := map[string]float64{}
	var share float64
	for _, p := range parts {
		got[p.Layer] = p.MS * 1e6 * float64(ops) // back to ns over all ops
		share += p.Share
	}
	want := map[string]float64{"rest": 120, "wait": 10, "poll": 20, "verify": 50}
	for name, ns := range want {
		if math.Abs(got[name]-ns) > 1e-6 {
			t.Errorf("%s: %v ns, want %v", name, got[name], ns)
		}
	}
	if len(got) != len(want) || math.Abs(share-1) > 1e-9 {
		t.Errorf("parts %v (shares sum to %v), want exactly %v summing to 1", got, share, want)
	}
}

func TestWorseBy(t *testing.T) {
	lower := declared{Better: "lower"}
	higher := declared{Better: "higher"}
	if got := worseBy(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 110: %v, want 0.10", got)
	}
	if got := worseBy(higher, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 90: %v, want 0.10", got)
	}
	if got := worseBy(higher, 100, 110); got >= 0 {
		t.Errorf("higher-is-better 100 -> 110 counted as worse: %v", got)
	}
}

var manifestPath = filepath.Join("..", "BENCHMARK.json")

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json must stay inside the limits its readers enforce.
func TestManifestShape(t *testing.T) {
	m, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not of the form %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, d := range append(append([]declared(nil), m.EndToEnd...), m.PerLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not of the form %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range m.EndToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s and better lower")
	}
}

// smallSize runs every phase once on a three-program corpus: mcf for the
// fleet phase, gcc for the function sweep, sjeng because it is small.
var smallSize = sizing{
	guests:    []string{"gcc", "mcf", "sjeng"},
	setupReps: 1, steadyPasses: 1, coldPasses: 1, learnPasses: 1, episodes: 1, mineReps: 1,
	warmRuns: 1, tracedColdPasses: 1, parPasses: 1, addReps: 2,
}

// otherSeed is a seed the expected file was not recorded at.
const otherSeed = 20260930

func reducedRun(t *testing.T, name string, seed uint64, traced bool) *runResult {
	w := workloadByName(name)
	if w == nil {
		t.Errorf("no workload %q", name)
		return nil
	}
	r, err := runWorkload(w, seed, 0.001, traced, filepath.Join("testdata", "expected.json"), smallSize)
	if err != nil {
		t.Error(err)
		return nil
	}
	if r.FailedOps != 0 || r.Ops == 0 {
		t.Errorf("%s seed %d traced %v: %d ops, %d failed: %v", name, seed, traced, r.Ops, r.FailedOps, r.Failures)
	}
	return r
}

// Every workload runs one reduced pass with no failed operation, at the
// default seed or at another one, and one runs traced. The names and
// units the program prints are exactly the ones BENCHMARK.json declares:
// an untraced run prints every end-to-end metric, a traced run every
// per-layer metric, and nothing else.
func TestReducedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	m, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(m.Workloads), len(workloads))
	}
	untraced := make([]*runResult, len(workloads))
	var traced *runResult
	var wg sync.WaitGroup
	corpus.All() // builds its cache on first use, without a lock
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json declares %q, the program runs %q", i, m.Workloads[i].Name, w.name)
		}
		sum := 0.0
		for _, s := range w.share {
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: phase shares sum to %v, want 1", w.name, sum)
		}
		seed := uint64(defaultSeed)
		if i%2 == 1 {
			seed = otherSeed
		}
		wg.Add(1)
		go func(i int, name string, seed uint64) {
			defer wg.Done()
			untraced[i] = reducedRun(t, name, seed, false)
		}(i, w.name, seed)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		traced = reducedRun(t, "cold-start", otherSeed, true)
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	check := func(what string, want []declared, line resultLine) {
		got := map[string]string{}
		for name, v := range line.Metrics {
			got[name] = v.Unit
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s is %v", what, name, v.Value)
			}
		}
		var missing, extra []string
		for _, d := range want {
			unit, ok := got[d.Name]
			switch {
			case !ok:
				missing = append(missing, d.Name)
			case unit != d.Unit:
				t.Errorf("%s: %s printed in %q, declared in %q", what, d.Name, unit, d.Unit)
			}
			delete(got, d.Name)
		}
		for name := range got {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		if len(missing)+len(extra) > 0 {
			t.Errorf("%s: declared but not printed %v; printed but not declared %v", what, missing, extra)
		}
	}
	for _, r := range untraced {
		check(r.Workload+" untraced", m.EndToEnd, r.line())
		for _, em := range r.EndToEnd {
			if em.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", r.Workload, em.Name, em.Value)
			}
		}
		if _, err := json.Marshal(r); err != nil {
			t.Errorf("%s: results.json encoding: %v", r.Workload, err)
		}
	}
	check("traced run", m.PerLayer, traced.line())
	if len(traced.spans) == 0 || len(traced.Budgets) != 2 {
		t.Errorf("traced run: %d spans, %d budgets; want spans and 2 budgets", len(traced.spans), len(traced.Budgets))
	}
	for _, b := range traced.Budgets {
		if b.Ops == 0 || len(b.Parts) == 0 {
			t.Errorf("budget of %s is empty", b.Operation)
		}
	}
}
