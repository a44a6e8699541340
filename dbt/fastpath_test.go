package dbt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dbtrules/arm"
	"dbtrules/codegen"
	"dbtrules/learn"
	"dbtrules/prog"
	"dbtrules/rules"
	"dbtrules/x86"
)

// loopGuest is a small function whose body re-enters its loop head, so
// chaining edges are traversed repeatedly within one run.
func loopGuest() *prog.ARM {
	code := arm.MustParseSeq(
		"mov r1, #0; add r1, r1, #1; cmp r1, r0; blt 1; mov r0, r1; bx lr")
	g := &prog.ARM{Code: code}
	g.Funcs = []prog.Func{{Name: "f", Entry: 0, End: len(code)}}
	return g
}

// TestRunResetsChaining: Engine.Run must not inherit a chaining
// predecessor from a previous run. Before the reset, run N's final TB
// left a phantom edge into run N+1's entry block: the edge got chained
// and run N+2 scored a bogus ChainHit on it, so ChainHits drifted upward
// across back-to-back runs. With the reset, every warm rerun of the same
// workload sees identical dispatch behaviour — on the same engine or a
// fresh one.
func TestRunResetsChaining(t *testing.T) {
	args := []uint32{9}
	run := func(e *Engine) uint64 {
		before := e.Stats.ChainHits
		if _, err := e.Run("f", args, 100000); err != nil {
			t.Fatal(err)
		}
		return e.Stats.ChainHits - before
	}

	a := NewEngine(loopGuest(), BackendQEMU, nil)
	d1, d2, d3 := run(a), run(a), run(a)
	if d2 != d3 {
		t.Fatalf("warm reruns disagree: run2 %d chain hits, run3 %d (phantom edge chained?)", d2, d3)
	}

	b := NewEngine(loopGuest(), BackendQEMU, nil)
	if f1 := run(b); f1 != d1 {
		t.Fatalf("first run: %d chain hits on reused engine, %d on fresh", d1, f1)
	}
	if f2 := run(b); f2 != d2 {
		t.Fatalf("second run: %d chain hits back-to-back, %d on fresh engine", d2, f2)
	}
	// Warm reruns re-dispatch every block; all real edges are already
	// chained, and the only full-cost dispatch left is the run's entry
	// (no predecessor exit to patch).
	if want := b.Stats.DispatchCount/2 - 1; d2 != want {
		t.Fatalf("warm rerun chain hits %d, want dispatches-1 = %d", d2, want)
	}
}

// checkCoverageReplaysStoreWalk is the engine-level lookup differential.
// The engine matches rules only through a BlockScanner over a frozen
// Index; this replays §4's application scan over every cached block with
// the locked reference instead — Store.LongestMatch at each position,
// dropping to the next-longest window when the engine's static checks
// (parameter count, §5 flag plan) reject a match — and requires the
// engine's record to agree exactly: the same windows marked Covered, the
// same rules in the same order, the same hit and reject counts. It is
// only meaningful after fault-free Runs with no invalidation, so that
// Stats sums over exactly the cached blocks.
func checkCoverageReplaysStoreWalk(t *testing.T, label string, e *Engine, store *rules.Store) {
	t.Helper()
	var fails uint64
	hits := map[int]uint64{}
	for _, tb := range e.TBs() {
		block := e.discover(tb.EntryGPC)
		if len(block) != tb.GuestLen {
			t.Fatalf("%s: tb %d: rediscovered %d instructions, TB holds %d", label, tb.EntryGPC, len(block), tb.GuestLen)
		}
		covered := make([]bool, len(block))
		applied := 0 // rules of tb.ruleIDs the walk has reproduced so far
		for i := 0; i < len(block); {
			n := 0
			for limit := len(block); n == 0; {
				r, _, l, ok := store.LongestMatch(block[:limit], i)
				if !ok {
					break
				}
				limit = i + l - 1 // on reject, the next-longest window
				if r.NumRegParams > len(cacheRegs) ||
					planRuleFlags(r, flagsLiveAfter(block, i+l), e.DisableRuleFlagSave) == flagPlanReject {
					fails++
					continue
				}
				if applied < len(tb.ruleIDs) && tb.ruleIDs[applied] == r.ID && tb.Covered[i] {
					n = l
					continue
				}
				// Statically fine yet not what the engine applied here:
				// only instantiation under host-register constraints (a
				// byte register, an index register) may have refused it.
				if !hostConstrained(r) {
					t.Fatalf("%s: tb %d pos %d: reference walk applies rule %d (len %d), engine did not",
						label, tb.EntryGPC, i, r.ID, l)
				}
				fails++
			}
			if n == 0 {
				i++
				continue
			}
			applied++
			hits[n]++
			for k := i; k < i+n; k++ {
				covered[k] = true
			}
			i += n
		}
		if !reflect.DeepEqual(covered, tb.Covered) || applied != len(tb.ruleIDs) {
			t.Fatalf("%s: tb %d: engine covered %v with rules %v, reference walk %v with the first %d of them",
				label, tb.EntryGPC, tb.Covered, tb.ruleIDs, covered, applied)
		}
	}
	if fails != e.Stats.RuleApplyFails {
		t.Fatalf("%s: engine rejected %d matched windows, reference walk %d", label, e.Stats.RuleApplyFails, fails)
	}
	if !reflect.DeepEqual(hits, e.Stats.RuleHitsByLen) {
		t.Fatalf("%s: rule hits by length: engine %v, reference walk %v", label, e.Stats.RuleHitsByLen, hits)
	}
}

// hostConstrained reports whether instantiating r can fail depending on
// which host registers its parameters were allocated.
func hostConstrained(r *rules.Rule) bool {
	for _, in := range r.Host {
		for _, o := range []x86.Operand{in.Src, in.Dst} {
			if o.Kind == x86.KReg8 || (o.Kind == x86.KMem && o.Mem.HasIndex) {
				return true
			}
		}
	}
	return false
}

// TestRuleIndexMatchesStoreInEngine: the frozen-index path the engine
// translates through must pick, in every block of random learned
// programs, exactly the windows and rules the locked-store reference walk
// picks.
func TestRuleIndexMatchesStoreInEngine(t *testing.T) {
	iters := 20
	if testing.Short() {
		iters = 4
	}
	r := rand.New(rand.NewSource(30303))
	var applied uint64
	for it := 0; it < iters; it++ {
		src := genDBTProgram(r)
		opts := codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "fastpath"}
		g, _ := compileGuest(t, src, opts)
		store := learnedStore(t, src, opts)
		args := []uint32{uint32(r.Int31n(2000) - 1000), uint32(r.Int31n(2000) - 1000)}

		e := NewEngine(g, BackendRules, store)
		if _, err := e.Run("work", args, 200_000_000); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		applied += e.Stats.StaticCovered
		checkCoverageReplaysStoreWalk(t, fmt.Sprintf("iter %d", it), e, store)
	}
	if applied == 0 {
		t.Fatal("no rule applied in any program; the differential is vacuous")
	}
}

// twoFuncGuest holds two functions with the same rule-coverable body, so
// one can be cached before a rule exists and the other translated after.
func twoFuncGuest() *prog.ARM {
	code := arm.MustParseSeq(
		"add r1, r0, #7; mov r0, r1; bx lr; add r1, r0, #9; mov r0, r1; bx lr")
	g := &prog.ARM{Code: code}
	g.Funcs = []prog.Func{{Name: "f", Entry: 0, End: 3}, {Name: "g", Entry: 3, End: 6}}
	return g
}

func learnAddRule(t *testing.T) *rules.Rule {
	t.Helper()
	rule, bucket := learn.NewLearner(nil).LearnOne(learnCand("add r1, r0, #100", "leal 100(%eax), %ecx"))
	if rule == nil {
		t.Fatalf("rule not learned: %v", bucket)
	}
	return rule
}

// TestEngineRefreezesBetweenRuns: rules added between Runs (learning
// finishing after the engine was built) must be picked up by the same
// engine's next translation, through a refrozen snapshot.
func TestEngineRefreezesBetweenRuns(t *testing.T) {
	g := twoFuncGuest()
	store := rules.NewStore()
	e := NewEngine(g, BackendRules, store)
	if _, err := e.Run("f", []uint32{1}, 1000); err != nil {
		t.Fatal(err)
	}
	if e.Stats.StaticCovered != 0 {
		t.Fatalf("empty store covered %d instructions", e.Stats.StaticCovered)
	}
	stale := e.idx

	store.Add(learnAddRule(t))
	if n := e.Invalidate(0, 3); n != 1 {
		t.Fatalf("Invalidate dropped %d blocks, want 1", n)
	}
	if ret, err := e.Run("f", []uint32{1}, 1000); err != nil || ret != 8 {
		t.Fatalf("second run: ret %d err %v", ret, err)
	}
	if e.Stats.StaticCovered == 0 {
		t.Fatal("rule added between runs not applied to the retranslated block")
	}
	if e.idx == stale || e.idx.Version() != store.Version() {
		t.Fatal("engine index not refrozen to the store's version")
	}
}

// TestEngineSeesAddWithoutInvalidate is the stale-snapshot twin: with no
// Invalidate, a rule added after the first Run still applies to whatever
// the engine translates next (another function here), while the block
// cached before the Add keeps the code it was built with.
func TestEngineSeesAddWithoutInvalidate(t *testing.T) {
	g := twoFuncGuest()
	store := rules.NewStore()
	e := NewEngine(g, BackendRules, store)
	if _, err := e.Run("f", []uint32{1}, 1000); err != nil {
		t.Fatal(err)
	}
	cached := e.TBs()[0]

	store.Add(learnAddRule(t))
	if ret, err := e.Run("g", []uint32{1}, 1000); err != nil || ret != 10 {
		t.Fatalf("run g: ret %d err %v", ret, err)
	}
	tbs := e.TBs()
	if len(tbs) != 2 || tbs[0] != cached || cached.CoveredCnt != 0 {
		t.Fatalf("block cached before the Add was disturbed: %d blocks, covered %d", len(tbs), cached.CoveredCnt)
	}
	if tbs[1].CoveredCnt == 0 {
		t.Fatal("rule added after the first run not applied to a newly translated block")
	}
	if e.idx.Version() != store.Version() {
		t.Fatal("engine index not refrozen to the store's version")
	}
	// The cached block still runs its pre-Add code: no retranslation.
	if ret, err := e.Run("f", []uint32{1}, 1000); err != nil || ret != 8 {
		t.Fatalf("rerun f: ret %d err %v", ret, err)
	}
	if e.Stats.TBCount != 2 {
		t.Fatalf("%d translations, want 2 (f once, g once)", e.Stats.TBCount)
	}
}

// TestDirectMappedTBCache: the slice-backed code cache must translate
// each entry PC once and serve repeats from the same TB.
func TestDirectMappedTBCache(t *testing.T) {
	e := NewEngine(loopGuest(), BackendQEMU, nil)
	if _, err := e.Run("f", []uint32{5}, 100000); err != nil {
		t.Fatal(err)
	}
	tbs := e.TBs()
	if len(tbs) == 0 || uint64(len(tbs)) != e.Stats.TBCount {
		t.Fatalf("TBs() returned %d blocks, TBCount %d", len(tbs), e.Stats.TBCount)
	}
	seen := map[int]bool{}
	for _, tb := range tbs {
		if seen[tb.EntryGPC] {
			t.Fatalf("entry %d translated twice", tb.EntryGPC)
		}
		seen[tb.EntryGPC] = true
		if len(tb.HostCosts) != len(tb.Host) {
			t.Fatalf("entry %d: %d cached costs for %d host instrs", tb.EntryGPC, len(tb.HostCosts), len(tb.Host))
		}
		for k, in := range tb.Host {
			if tb.HostCosts[k] != hostCost(in) {
				t.Fatalf("entry %d host %d: cached cost %d, hostCost %d",
					tb.EntryGPC, k, tb.HostCosts[k], hostCost(in))
			}
		}
	}
	if e.Stats.DispatchCount == 0 {
		t.Fatal("no dispatches recorded")
	}
}
