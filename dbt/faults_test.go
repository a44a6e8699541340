package dbt

import (
	"math/rand"
	"testing"

	"dbtrules/arm"
	"dbtrules/codegen"
	"dbtrules/internal/faultinject"
	"dbtrules/learn"
	"dbtrules/minc"
	"dbtrules/prog"
	"dbtrules/rules"
)

// TestFaultInjectionMatrix is the differential recovery gate: for every
// engine injection point fired exactly once, Run must return the same
// result and guest-instruction count as the uninstrumented no-rules
// interpreter path, record exactly one contained fault and one recovery,
// and keep the store's quarantine bookkeeping consistent.
func TestFaultInjectionMatrix(t *testing.T) {
	opts := codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "dbttest"}
	g, _ := compileGuest(t, dbtTestSrc, opts)
	args := []uint32{7, 9}

	ref := NewEngine(g, BackendQEMU, nil)
	wantRet, err := ref.Run("work", args, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	wantInstrs := ref.Stats.GuestInstrs

	for _, pt := range faultinject.EnginePoints() {
		t.Run(pt, func(t *testing.T) {
			defer faultinject.Reset()
			// Fresh store per point: quarantine mutates it.
			store := learnedStore(t, dbtTestSrc, opts)
			nRules := store.Count()
			if nRules == 0 {
				t.Fatal("no rules learned")
			}
			faultinject.Arm(pt, 1)
			e := NewEngine(g, BackendRules, store)
			got, err := e.Run("work", args, 100_000_000)
			if err != nil {
				t.Fatalf("run did not recover: %v", err)
			}
			if n := faultinject.Fired(pt); n != 1 {
				t.Fatalf("point fired %d times, want 1 (instrumentation site not reached?)", n)
			}
			if got != wantRet {
				t.Errorf("result %d, interpreter reference %d", got, wantRet)
			}
			if e.Stats.GuestInstrs != wantInstrs {
				t.Errorf("executed %d guest instrs, interpreter reference %d",
					e.Stats.GuestInstrs, wantInstrs)
			}
			if e.Stats.Faults != 1 || e.Stats.Recoveries != 1 {
				t.Errorf("faults=%d recoveries=%d, want 1/1", e.Stats.Faults, e.Stats.Recoveries)
			}

			// Quarantine bookkeeping: stats, store count, and the next
			// frozen snapshot must all agree.
			q := store.Quarantined()
			if uint64(len(q)) != e.Stats.QuarantinedRules {
				t.Errorf("Quarantined() has %d rules, stats say %d", len(q), e.Stats.QuarantinedRules)
			}
			if store.Count()+len(q) != nRules {
				t.Errorf("count %d + quarantined %d != original %d", store.Count(), len(q), nRules)
			}
			idx := store.Freeze()
			for _, r := range q {
				if !store.IsQuarantined(r.ID) {
					t.Errorf("rule %d in Quarantined() but IsQuarantined is false", r.ID)
				}
				for _, live := range store.All() {
					if live.ID == r.ID {
						t.Errorf("quarantined rule %d still installed", r.ID)
					}
				}
				if m, _, ok := idx.NewBlockScanner(r.Guest).Match(0, len(r.Guest)); ok && m.ID == r.ID {
					t.Errorf("frozen index still matches quarantined rule %d", r.ID)
				}
			}
			if err := store.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if pt == faultinject.RuleBindingCorrupt && len(q) == 0 {
				// This point only fires inside a matched rule application,
				// so a rule must have been blamed and pulled.
				t.Error("rule-binding fault contained but no rule quarantined")
			}
		})
	}
}

// TestExecFaultQuarantinesRuleCoveredTB pins the execution-fault
// attribution path: when the faulting TB was rule-generated, its rules are
// quarantined and the retried execution (now pure-TCG for that window)
// still computes the right answer.
func TestExecFaultQuarantinesRuleCoveredTB(t *testing.T) {
	defer faultinject.Reset()
	l := learn.NewLearner(nil)
	r, bucket := l.LearnOne(learnCand("cmp r0, r1; bne 3", "cmpl %ecx, %eax; jne 9"))
	if r == nil {
		t.Fatalf("flag rule not learned: %v", bucket)
	}
	store := rules.NewStore()
	store.Add(r)
	code := arm.MustParseSeq(`cmp r0, r1; bne 3; mov r3, #0;
		bhi 6; mov r2, #111; b 7; mov r2, #222; bx lr`)
	g := &prog.ARM{Code: code}
	g.Funcs = []prog.Func{{Name: "f", Entry: 0, End: len(code)}}

	// The first dispatched TB is the rule-covered entry block; panic its
	// first execution.
	faultinject.Arm(faultinject.InterpPanic, 1)
	e := NewEngine(g, BackendRules, store)
	if _, err := e.Run("f", []uint32{9, 5}, 10000); err != nil {
		t.Fatalf("run did not recover: %v", err)
	}
	if got := e.readEnv(EnvReg(arm.R2)); got != 222 {
		t.Errorf("r2 = %d after recovery, want 222", got)
	}
	if !store.IsQuarantined(r.ID) {
		t.Error("rule contributing to the faulting TB was not quarantined")
	}
	if e.Stats.QuarantinedRules != 1 || e.Stats.InvalidatedTBs == 0 {
		t.Errorf("quarantined=%d invalidated=%d, want 1 and >0",
			e.Stats.QuarantinedRules, e.Stats.InvalidatedTBs)
	}
}

// TestPersistentFaultSurfaces: a fault that keeps recurring at one entry
// must not loop forever — past the per-entry retry budget, containment
// refuses and the FaultError reaches Run's caller.
func TestPersistentFaultSurfaces(t *testing.T) {
	e := NewEngine(loopGuest(), BackendQEMU, nil)
	e.faultRetries = map[int]int{}
	fe := &FaultError{Point: "test", GuestPC: 0, TBEntry: -1, RuleID: -1}
	for i := 0; i < maxFaultRetries; i++ {
		if !e.contain(fe, 0) {
			t.Fatalf("containment refused within budget (retry %d)", i)
		}
	}
	if e.contain(fe, 0) {
		t.Error("containment accepted past the retry budget")
	}
	if e.Stats.Faults != maxFaultRetries+1 || e.Stats.Recoveries != maxFaultRetries {
		t.Errorf("faults=%d recoveries=%d, want %d/%d",
			e.Stats.Faults, e.Stats.Recoveries, maxFaultRetries+1, maxFaultRetries)
	}
}

// TestEngineInvalidate covers the self-modifying-code hook: overlapping
// TBs are cleared, surviving predecessors are unlinked from the removed
// entries, and re-execution retranslates and still computes correctly.
func TestEngineInvalidate(t *testing.T) {
	g := loopGuest()
	e := NewEngine(g, BackendQEMU, nil)
	want, err := e.Run("f", []uint32{9}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if e.tbCount == 0 {
		t.Fatal("no TBs translated")
	}
	// The loop guest chains block 1 (loop body) back to itself and out to
	// block 4; find a predecessor with successors to check unlinking.
	var pred *TB
	for _, tb := range e.TBs() {
		if len(tb.succ) > 0 {
			pred = tb
			break
		}
	}
	if pred == nil {
		t.Fatal("no chained edges created")
	}
	target := int(pred.succ[0])
	before := e.tbCount

	gen0 := e.pageGen[target>>tbPageShift]
	n := e.Invalidate(target, 1)
	if n == 0 {
		t.Fatalf("Invalidate(%d, 1) removed nothing", target)
	}
	if e.tbs[target] != nil {
		t.Errorf("TB at %d survived invalidation", target)
	}
	if e.tbCount != before-n {
		t.Errorf("tbCount %d after removing %d from %d", e.tbCount, n, before)
	}
	if e.pageGen[target>>tbPageShift] == gen0 {
		t.Error("page generation not bumped")
	}
	for _, tb := range e.TBs() {
		if tb.chainedTo(target) {
			t.Errorf("TB at %d still chained to invalidated entry %d", tb.EntryGPC, target)
		}
	}
	if uint64(n) > e.Stats.InvalidatedTBs {
		t.Errorf("InvalidatedTBs %d < removed %d", e.Stats.InvalidatedTBs, n)
	}

	// Invalidation of everything, then a rerun, must still be correct.
	e.Invalidate(0, len(g.Code))
	got, err := e.Run("f", []uint32{9}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("post-invalidation run returned %d, want %d", got, want)
	}
}

// TestStaleGenerationBackstop: a cached TB whose entry page generation
// moved (without the eager sweep clearing it) is retranslated at dispatch.
func TestStaleGenerationBackstop(t *testing.T) {
	g := loopGuest()
	e := NewEngine(g, BackendQEMU, nil)
	if _, err := e.Run("f", []uint32{5}, 100000); err != nil {
		t.Fatal(err)
	}
	old := e.tbs[0]
	if old == nil {
		t.Fatal("entry TB missing")
	}
	inv0 := e.Stats.InvalidatedTBs
	e.pageGen[0]++ // simulate a sweep that missed this block
	tb, err := e.tb(0)
	if err != nil {
		t.Fatal(err)
	}
	if tb == old {
		t.Error("stale TB served from the cache")
	}
	if e.Stats.InvalidatedTBs != inv0+1 {
		t.Errorf("InvalidatedTBs %d, want %d", e.Stats.InvalidatedTBs, inv0+1)
	}
	if tb.Gen != e.pageGen[0] {
		t.Errorf("retranslated TB has gen %d, page gen %d", tb.Gen, e.pageGen[0])
	}

	// Self-loop: the loop body at gpc 1 is chained to itself, and it is
	// the dispatcher's predecessor when its own page goes stale. The
	// dropped block must not stay behind as lastTB, or the fresh
	// translation would be entered over the dead block's patched jump.
	loop := e.tbs[1]
	if loop == nil || !loop.chainedTo(1) {
		t.Fatal("loop body TB missing or not self-chained")
	}
	e.lastTB = loop
	e.pageGen[0]++
	fresh, err := e.tb(1)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == loop || e.lastTB == loop {
		t.Fatalf("stale self-loop TB survived: served %v, still lastTB %v", fresh == loop, e.lastTB == loop)
	}
	hits := e.Stats.ChainHits
	e.exec(fresh)
	if e.Stats.ChainHits != hits {
		t.Error("dispatch chained from a dropped block")
	}
}

// TestInvalidateRangeClamps: out-of-range and empty ranges are safe no-ops.
func TestInvalidateRangeClamps(t *testing.T) {
	g := loopGuest()
	e := NewEngine(g, BackendQEMU, nil)
	if _, err := e.Run("f", []uint32{3}, 100000); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{-10, 5}, {len(g.Code) + 3, 10}, {2, 0}, {2, -1}} {
		before := e.tbCount
		if c[0] == -10 {
			// Negative start clamps to 0 and may legitimately remove TBs;
			// only check it does not panic.
			e.Invalidate(c[0], c[1])
			continue
		}
		if n := e.Invalidate(c[0], c[1]); c[1] <= 0 && n != 0 {
			t.Errorf("Invalidate(%d,%d) removed %d blocks", c[0], c[1], n)
		}
		if c[1] <= 0 && e.tbCount != before {
			t.Errorf("Invalidate(%d,%d) changed tbCount", c[0], c[1])
		}
	}
}

// FuzzEngineRecovers drives random programs under every engine injection
// point at a fuzzed hit position: Run must never crash, and when it
// recovers it must match the uninstrumented interpreter exactly.
func FuzzEngineRecovers(f *testing.F) {
	for _, seed := range []int64{1, 4242, 987654321} {
		f.Add(seed, uint8(0), uint8(1))
	}
	f.Add(int64(7), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, ptIdx, nth uint8) {
		defer faultinject.Reset()
		points := faultinject.EnginePoints()
		pt := points[int(ptIdx)%len(points)]
		r := rand.New(rand.NewSource(seed))
		src := genDBTProgram(r)
		args := []uint32{uint32(r.Int31n(2000) - 1000), uint32(r.Int31n(2000) - 1000)}

		g, h, err := codegen.Compile(minc.MustParse(src),
			codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "fuzz"})
		if err != nil {
			t.Skip("generator produced uncompilable program")
		}
		l := learn.NewLearner(nil)
		rs, _ := l.LearnProgram(g, h)
		store := rules.NewStore()
		for _, rule := range rs {
			store.Add(rule)
		}
		ref := NewEngine(g, BackendQEMU, nil)
		wantRet, err := ref.Run("work", args, 50_000_000)
		if err != nil {
			t.Skip("reference run exceeds budget")
		}

		faultinject.Arm(pt, uint64(nth%32)+1)
		e := NewEngine(g, BackendRules, store)
		got, err := e.Run("work", args, 50_000_000)
		if err != nil {
			// A surfaced FaultError is only legitimate past the retry
			// budget, which a single one-shot injection cannot exhaust.
			t.Fatalf("%s@%d: %v\n%s", pt, nth%32+1, err, src)
		}
		if got != wantRet {
			t.Fatalf("%s@%d: got %d, interpreter %d\n%s", pt, nth%32+1, int32(got), int32(wantRet), src)
		}
		if faultinject.Fired(pt) == 1 && e.Stats.Recoveries != 1 {
			t.Fatalf("%s@%d: fired once but %d recoveries", pt, nth%32+1, e.Stats.Recoveries)
		}
		if e.Stats.GuestInstrs != ref.Stats.GuestInstrs {
			t.Fatalf("%s@%d: %d guest instrs, interpreter %d\n%s",
				pt, nth%32+1, e.Stats.GuestInstrs, ref.Stats.GuestInstrs, src)
		}
	})
}
