// Command benchmark is the repository's benchmark: five workloads, nine
// end-to-end metrics, and a per-layer budget measured from outside the
// program under test. See README.md in this directory.
//
//	sh benchmark/run.sh                              every workload, untraced then traced
//	sh benchmark/run.sh -workload cold-start         one workload
//	sh benchmark/run.sh -agree                       two untraced sets, compared against the bounds
//	sh benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   what the driver runs
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics, for the last run made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dbtrules/dbt"
)

// phase names one of the four activities every workload is a mix of.
type phase int

const (
	phaseSteady phase = iota
	phaseCold
	phaseLearn
	phaseFleet
	numPhases
)

// workload is a mix of the four phases. Every end-to-end metric is
// defined on every workload, so each phase always runs; the workload
// decides which phase gets most of the measuring time (its share of
// --seconds) and which tier the warm Runs are pinned to.
type workload struct {
	name  string
	tier  dbt.Tier
	share [numPhases]float64 // steady, cold, learn, fleet
}

// BENCHMARK.json records why each workload exists. The shares are sized
// for its run_seconds of 12: the phase a workload is about gets 5 to 7
// seconds, and no phase gets less than what a steady median needs (about
// 1.5 s; the fleet phase 3.6 s, because one churn episode alone takes 1.5).
var workloads = []workload{
	{"steady-native", dbt.TierAuto, [numPhases]float64{0.44, 0.12, 0.14, 0.30}},
	{"steady-threaded", dbt.TierThreaded, [numPhases]float64{0.44, 0.12, 0.14, 0.30}},
	{"cold-start", dbt.TierAuto, [numPhases]float64{0.14, 0.42, 0.14, 0.30}},
	{"learn-corpus", dbt.TierAuto, [numPhases]float64{0.14, 0.12, 0.44, 0.30}},
	{"fleet-churn", dbt.TierAuto, [numPhases]float64{0.14, 0.12, 0.14, 0.60}},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizing fixes what a run does at least, however short --seconds is: how
// often it sets up (setup_s is the median), and the fewest passes of
// each phase. The benchmark always runs fullSize; the package's tests run
// a smaller corpus once through every phase.
type sizing struct {
	guests                                         []string // nil = the whole corpus
	setupReps                                      int
	steadyPasses, coldPasses, learnPasses          int
	episodes, mineReps                             int
	warmRuns, tracedColdPasses, parPasses, addReps int // traced run only
}

var fullSize = sizing{
	setupReps: 5, steadyPasses: 2, coldPasses: 3, learnPasses: 2, episodes: 1, mineReps: 2,
	warmRuns: 3, tracedColdPasses: 3, parPasses: 2, addReps: 30,
}

const (
	// rounds is how many times a run cycles through its phases.
	rounds = 3
	// tracedFraction scales every phase's budget in the traced run.
	tracedFraction = 0.2
	// churnShare is the part of the fleet phase's budget spent on churn
	// episodes; the rest goes to mining repetitions.
	churnShare = 0.6
)

// metric is one named reading. Samples is present when the value
// summarises timing samples of one series.
type metric struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Value   float64  `json:"value"`
	Samples *summary `json:"samples,omitempty"`
}

// guestRow is one guest's row under a geomean metric.
type guestRow struct {
	Metric string   `json:"metric"`
	Guest  string   `json:"guest"`
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Wall   *summary `json:"samples,omitempty"`
}

// budget lists the layers one kind of operation spends its time in.
type budget struct {
	Operation   string       `json:"operation"`
	MSPerOp     float64      `json:"ms_per_op"`
	Ops         int          `json:"ops"`
	Parts       []budgetPart `json:"parts"`
	CoveragePct float64      `json:"coverage_pct"`
}

type phaseInfo struct {
	Phase  string  `json:"phase"`
	Passes int     `json:"passes"`
	WallS  float64 `json:"wall_s"`
}

// runResult is one workload run, untraced or traced.
type runResult struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Traced    bool        `json:"traced"`
	Ops       int         `json:"ops"`
	FailedOps int         `json:"failed_ops"`
	Failures  []string    `json:"failures,omitempty"`
	WallS     float64     `json:"wall_s"`
	Phases    []phaseInfo `json:"phases"`
	EndToEnd  []metric    `json:"end_to_end"`
	Layers    []metric    `json:"layers,omitempty"`
	PerGuest  []guestRow  `json:"per_guest"`
	Budgets   []budget    `json:"budgets,omitempty"`

	spans []span
}

func (r *runResult) metric(name string) (metric, bool) {
	for _, m := range append(r.EndToEnd, r.Layers...) {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runWorkload makes one run: set up, check the tiers against each other,
// run the four phases with the workload's budgets, and in the traced run
// replay the lower layers on the translated blocks.
func runWorkload(w *workload, seed uint64, seconds float64, traced bool, expectedPath string, sz sizing) (*runResult, error) {
	start := time.Now()
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced}
	o := &oracle{}
	var tr *tracer
	frac := 1.0
	if traced {
		tr = newTracer()
		frac = tracedFraction
	}
	budgetOf := func(p phase) time.Duration {
		return time.Duration(seconds * w.share[p] * frac * float64(time.Second))
	}

	var in *inputs
	var setupS, compileMS, refMS []float64
	for i := 0; i < sz.setupReps; i++ {
		runtime.GC()
		id := tr.begin("setup", 0)
		t0 := time.Now()
		var err error
		if in, err = buildInputs(uint32(seed), sz.guests, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		tr.end(id)
		compileMS = append(compileMS, ms(in.compile))
		refMS = append(refMS, ms(in.refs))
		in.checkExpected(expectedPath, o)
	}

	if !traced {
		sz.warmRuns, sz.tracedColdPasses, sz.parPasses = 0, 0, 0
	}
	t0 := time.Now()
	sweep := runTierSweep(in, sz.warmRuns, o, tr)
	res.Phases = append(res.Phases, phaseInfo{Phase: "tier-sweep", Passes: 1, WallS: time.Since(t0).Seconds()})

	t0 = time.Now()
	steady := newSteady(in, w.tier, o)
	res.Phases = append(res.Phases, phaseInfo{Phase: "steady-warm-up", Passes: 1, WallS: time.Since(t0).Seconds()})
	cold := newCold(in, sweep.want, o)
	learned := newLearn(in, o)
	fleet := newFleet(in, o)

	fb := budgetOf(phaseFleet)
	churn := time.Duration(float64(fb) * churnShare)
	steadyP := &pacer{name: "steady", budget: budgetOf(phaseSteady), min: sz.steadyPasses}
	coldP := &pacer{name: "cold", budget: budgetOf(phaseCold), min: sz.coldPasses}
	learnP := &pacer{name: "learn", budget: budgetOf(phaseLearn), min: sz.learnPasses}
	churnP := &pacer{name: "churn", budget: churn, min: sz.episodes}
	mineP := &pacer{name: "mine", budget: fb - churn, min: sz.mineReps}
	for r := 0; r < rounds; r++ {
		runtime.GC()
		steadyP.round(r, rounds, func() { steady.pass(tr) })
		runtime.GC()
		cold.untraced(coldP, r, rounds)
		runtime.GC()
		learnP.round(r, rounds, func() { learned.pass(1, tr) })
		runtime.GC()
		churnP.round(r, rounds, func() { fleet.churnEpisode(tr) })
		runtime.GC()
		mineP.round(r, rounds, func() { fleet.mineRepetition(tr) })
	}
	for _, p := range []*pacer{steadyP, coldP, learnP, churnP, mineP} {
		res.Phases = append(res.Phases, phaseInfo{Phase: p.name, Passes: p.done, WallS: p.spent.Seconds()})
	}

	res.EndToEnd, res.PerGuest = endToEnd(median(setupS), steady, cold, learned, fleet)
	if traced {
		t0 = time.Now()
		cold.traced(sz.tracedColdPasses, tr)
		for i := 0; i < sz.parPasses; i++ {
			learned.pass(min(runtime.NumCPU(), 4), tr)
		}
		replay := runReplays(cold, tr)
		addAllNS, addNS := storeReplay(in.guest("mcf").learned, sz.addReps, tr)
		res.Phases = append(res.Phases, phaseInfo{Phase: "traced-extras", Passes: 1, WallS: time.Since(t0).Seconds()})
		res.spans = tr.snapshot()
		coldBudget := coldBudgetOf(cold, sweep, replay)
		res.Budgets = []budget{coldBudget, fleetBudgetOf(res.spans)}
		res.Layers = layerMetrics(in, layerSources{
			steady: steady, cold: cold, learned: learned, fleet: fleet, sweep: sweep, replay: replay,
			addAllNS: addAllNS, addNS: addNS,
			compileMS: median(compileMS), refMS: median(refMS), coldBudget: coldBudget,
		})
	}
	res.Ops, res.FailedOps, res.Failures = o.attempted, o.failed, o.messages
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) line() resultLine {
	out := resultLine{Correct: r.FailedOps == 0, Attempted: r.Ops, Failed: r.FailedOps, Metrics: map[string]metricValue{}}
	ms := r.EndToEnd
	if r.Traced {
		ms = r.Layers
	}
	for _, m := range ms {
		out.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// environment is the block results.json and BASELINE.md identify the
// machine by.
type environment struct {
	GoVersion       string `json:"go_version"`
	GOOS            string `json:"goos"`
	GOARCH          string `json:"goarch"`
	CPUModel        string `json:"cpu_model"`
	NumCPU          int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	NativeSupported bool   `json:"native_supported"`
}

func currentEnvironment() environment {
	env := environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NativeSupported: dbt.NativeSupported(), CPUModel: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// writeOutputs writes results.json and, when any run was traced,
// trace.json into dir, and returns the results path.
func writeOutputs(dir string, runs []*runResult) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(struct {
		Environment environment  `json:"environment"`
		Runs        []*runResult `json:"runs"`
	}{currentEnvironment(), runs}, "", "\t")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	var spans []span
	for _, r := range runs {
		if r.Traced {
			spans = r.spans // the last traced run's; one file, one run
		}
	}
	if spans != nil {
		if err := writeTrace(filepath.Join(dir, "trace.json"), spans); err != nil {
			return "", err
		}
	}
	return path, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", defaultSeed, "seed of the generated inputs: the guests' second argument and the publish order")
	seconds := flag.Float64("seconds", 12, "measuring time of one run, split over the phases by the workload's shares")
	trace := flag.Int("trace", -1, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), -1 = both")
	agree := flag.Bool("agree", false, "run two untraced sets and compare them against the bounds in the manifest")
	outDir := flag.String("out", "out", "directory for results.json and trace.json")
	manifest := flag.String("manifest", filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json, read by -agree for bounds and directions")
	expected := flag.String("expected", filepath.Join("testdata", "expected.json"), "interpreter results at the default seed")
	record := flag.Bool("record-expected", false, "rewrite the -expected file from the ARM interpreter and exit")
	flag.Parse()

	if *seconds <= 0 || (*trace < -1 || *trace > 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace one of -1, 0, 1")
		return 2
	}
	if *record {
		return recordExpected(*expected)
	}
	picked := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		picked = []workload{*w}
	}
	if *agree {
		return runAgree(picked, *seed, *seconds, *manifest, *expected)
	}

	var runs []*runResult
	for _, traced := range []bool{false, true} {
		if (*trace == 0 && traced) || (*trace == 1 && !traced) {
			continue
		}
		for i := range picked {
			r, err := runWorkload(&picked[i], *seed, *seconds, traced, *expected, fullSize)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			printRun(os.Stdout, r)
			runs = append(runs, r)
		}
	}
	path, err := writeOutputs(*outDir, runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("results:", path)
	line, err := json.Marshal(runs[len(runs)-1].line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// recordExpected rewrites testdata/expected.json from the interpreter.
func recordExpected(path string) int {
	in, err := buildInputs(defaultSeed, nil, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	data, err := json.MarshalIndent(in.expected(), "", "\t")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
