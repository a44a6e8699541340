package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"dbtrules/arm"
	"dbtrules/codegen"
	"dbtrules/corpus"
	"dbtrules/dbt"
	"dbtrules/learn"
	"dbtrules/prog"
	"dbtrules/rules"
)

// defaultSeed is the guest programs' second argument in every golden
// file of the repository; testdata/expected.json is recorded at it.
const defaultSeed = 12345

// maxGuestInstrs bounds every emulation the benchmark starts.
const maxGuestInstrs = 4_000_000_000

// steadyDivisor scales the corpus's ref input down for the warm-run
// workloads: a threaded-tier pass over the twelve guests takes 3.4 s on
// the full ref input, which leaves two samples per guest in a ten-second
// run. Warm-run speed does not depend on the iteration count.
const steadyDivisor = 4

// sweepArgs are the arguments of every call in the function sweep.
var sweepArgs = []uint32{7, 3}

// largeGuests are the four corpus programs with 51-99 linked functions;
// the function sweep runs on them.
var largeGuests = map[string]bool{"gcc": true, "xalancbmk": true, "perlbench": true, "gobmk": true}

// refRun is what the ARM interpreter says a call returns and how many
// guest instructions it executes.
type refRun struct {
	Ret   uint32 `json:"ret"`
	Steps uint64 `json:"guest_instrs"`
}

// guest is one corpus program with everything the workloads need: both
// binaries, the rules learned from it, the leave-one-out store it runs
// under, its inputs and the interpreter's reference results.
type guest struct {
	name    string
	arm     *prog.ARM
	x86     *prog.X86
	learned []*rules.Rule
	loo     *rules.Store

	testArgs, steadyArgs []uint32
	testRef, steadyRef   refRun
	// sweepRef is the interpreter's r0 for every linked function called
	// once with sweepArgs, in link order on one carried memory image
	// (large guests only).
	sweepRef []uint32
}

// inputs is one complete set-up: the compiled corpus, the learned rule
// stores and the reference results for one seed.
type inputs struct {
	seed     uint32
	guests   []*guest
	ruleHash string

	compile, refs time.Duration
}

func (in *inputs) guest(name string) *guest {
	for _, g := range in.guests {
		if g.name == name {
			return g
		}
	}
	return nil
}

// learnCorpus is one full-corpus learning pass: one learner over the
// twelve pairs in corpus order, so rule IDs are unique across programs
// (the distribution path quarantines by ID).
func learnCorpus(guests []*guest, jobs int) (perGuest [][]*rules.Rule, total learn.Stats) {
	l := learn.NewLearner(&learn.Options{Jobs: jobs})
	for _, g := range guests {
		rs, st := l.LearnProgram(g.arm, g.x86)
		perGuest = append(perGuest, rs)
		total.Add(st)
	}
	return perGuest, total
}

// hashRules is the rule-file hash every learning pass must reproduce.
func hashRules(lists [][]*rules.Rule) (string, error) {
	var buf bytes.Buffer
	for _, l := range lists {
		if err := rules.WriteRules(&buf, l); err != nil {
			return "", fmt.Errorf("marshal learned rules: %w", err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// buildInputs performs one complete set-up for a seed. It is what
// setup_s times: compile the corpus, learn it, build the twelve
// leave-one-out stores, and interpret every input for the references.
// only, when not nil, restricts the corpus to the named programs (the
// package's tests use a small one).
func buildInputs(seed uint32, only []string, tr *tracer) (*inputs, error) {
	in := &inputs{seed: seed}

	id := tr.begin("codegen.compile", 0)
	t0 := time.Now()
	for i := range corpus.All() {
		b := &corpus.All()[i]
		if only != nil && !slices.Contains(only, b.Name) {
			continue
		}
		g, h, err := b.Compile(codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", b.Name, err)
		}
		in.guests = append(in.guests, &guest{
			name: b.Name, arm: g, x86: h,
			testArgs:   []uint32{uint32(b.TestN), seed},
			steadyArgs: []uint32{uint32(b.RefN / steadyDivisor), seed},
		})
	}
	in.compile = time.Since(t0)
	tr.end(id)

	id = tr.begin("learn.corpus", 0)
	t0 = time.Now()
	lists, _ := learnCorpus(in.guests, 1)
	hash, err := hashRules(lists)
	if err != nil {
		return nil, err
	}
	in.ruleHash = hash
	for i, g := range in.guests {
		g.learned = lists[i]
	}
	for _, g := range in.guests {
		g.loo = rules.NewStore()
		for _, o := range in.guests {
			if o != g {
				g.loo.AddAll(o.learned)
			}
		}
	}
	tr.end(id)

	id = tr.begin("prog.reference", 0)
	t0 = time.Now()
	for _, g := range in.guests {
		if g.testRef, err = reference(g.arm, nil, "bench", g.testArgs); err != nil {
			return nil, err
		}
		if g.steadyRef, err = reference(g.arm, nil, "bench", g.steadyArgs); err != nil {
			return nil, err
		}
		if !largeGuests[g.name] {
			continue
		}
		st := arm.NewState()
		for _, f := range g.arm.Funcs {
			r, err := reference(g.arm, st, f.Name, sweepArgs)
			if err != nil {
				return nil, err
			}
			g.sweepRef = append(g.sweepRef, r.Ret)
		}
	}
	in.refs = time.Since(t0)
	tr.end(id)
	return in, nil
}

// reference runs one call on the ARM interpreter, the oracle for every
// emulated call. st carries memory across calls; nil starts from zeroed
// globals.
func reference(p *prog.ARM, st *arm.State, fn string, args []uint32) (refRun, error) {
	if st == nil {
		st = arm.NewState()
	}
	before := st.Steps
	ret, st, err := p.RunARM(st, fn, args, maxGuestInstrs)
	if err != nil {
		return refRun{}, fmt.Errorf("reference %s(%v): %w", fn, args, err)
	}
	return refRun{Ret: ret, Steps: st.Steps - before}, nil
}

// zeroGlobals restores the guest's globals to the zeroed image a fresh
// engine starts from. Guest memory persists across Runs of one engine
// and the corpus programs accumulate into their globals, so without it a
// warm Run would do different work from the one before and could not be
// checked against the interpreter's reference.
func zeroGlobals(e *dbt.Engine, p *prog.ARM) {
	m := e.Mem()
	for _, gl := range p.Globals {
		for a, n := uint32(0), uint32(gl.Len*gl.ElemSize); a < n; a++ {
			m.Store8(gl.Addr+a, 0)
		}
	}
}

// expectedFile is testdata/expected.json: the interpreter's results at
// the default seed, recorded once with -record-expected and committed,
// so that a drift of the reference interpreter itself cannot pass as
// correct.
type expectedFile struct {
	Seed   uint32                       `json:"seed"`
	Guests map[string]map[string]refRun `json:"guests"`
}

func (in *inputs) expected() expectedFile {
	out := expectedFile{Seed: in.seed, Guests: map[string]map[string]refRun{}}
	for _, g := range in.guests {
		out.Guests[g.name] = map[string]refRun{"test": g.testRef, "steady": g.steadyRef}
	}
	return out
}

// checkExpected compares the references against the recorded file. It
// applies at the default seed only; other seeds rely on the interpreter.
func (in *inputs) checkExpected(path string, o *oracle) {
	if in.seed != defaultSeed {
		return
	}
	o.begin()
	data, err := os.ReadFile(path)
	if err != nil {
		o.failf("expected results: %v", err)
		return
	}
	var want expectedFile
	if err := json.Unmarshal(data, &want); err != nil {
		o.failf("expected results: %v", err)
		return
	}
	got := in.expected()
	for name, rows := range got.Guests {
		for input, r := range rows {
			if w := want.Guests[name][input]; w != r {
				o.failf("%s %s: interpreter says %+v, %s says %+v", name, input, r, path, w)
			}
		}
	}
}
