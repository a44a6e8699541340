package dbt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dbtrules/codegen"
	"dbtrules/x86"
)

// runUnderTier compiles-free helper: runs the work function of a prepared
// engine configuration under one tier and returns the engine for
// inspection.
func runUnderTier(t *testing.T, label, src string, args []uint32, backend Backend, tier Tier, threshold, nativeThreshold int) (*Engine, uint32) {
	t.Helper()
	e, ret, err := runUnderTierBudget(t, src, args, backend, tier, threshold, nativeThreshold, 200_000_000)
	if err != nil {
		t.Fatalf("%s %s tier %s: %v\n%s", label, backend, tier, err, src)
	}
	return e, ret
}

// runUnderTierBudget is runUnderTier with a guest-instruction budget,
// returning the Run's error instead of failing on it.
func runUnderTierBudget(t *testing.T, src string, args []uint32, backend Backend, tier Tier, threshold, nativeThreshold int, budget uint64) (*Engine, uint32, error) {
	t.Helper()
	g, _ := compileGuest(t, src, codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "tier"})
	var e *Engine
	if backend == BackendRules {
		e = NewEngine(g, backend, learnedStore(t, src, codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "tier"}))
	} else {
		e = NewEngine(g, backend, nil)
	}
	e.Tier = tier
	e.PromoteThreshold = threshold
	e.NativeThreshold = nativeThreshold
	ret, err := e.Run("work", args, budget)
	return e, ret, err
}

// tierConfigs is the non-baseline tier matrix every differential runs:
// eager threading, auto with aggressive and default thresholds, eager
// native compilation, and auto promoting through all three tiers
// quickly. On hosts without the native back end the native configs
// degrade to threaded, which is itself the contract under test.
var tierConfigs = []struct {
	tier            Tier
	threshold       int
	nativeThreshold int
}{
	{TierThreaded, 0, 0},
	{TierAuto, 1, 0},
	{TierAuto, 0, 0},
	{TierNative, 0, 0},
	{TierAuto, 1, 2},
}

// checkTiersAgree runs one program under the interpreter tier and every
// tierConfigs entry, and requires the return value, the Run's error, the
// full Stats struct, guest-visible memory and the memory access counters
// to be bit-identical — the determinism contract neither threading nor
// native compilation may break. A budget above zero is the fraction of
// the program's guest instructions the runs may execute: below 1 the
// runs end on the budget error, wherever it falls — inside a chain of
// native links included.
func checkTiersAgree(t *testing.T, label, src string, args []uint32, budget float64) {
	t.Helper()
	for _, backend := range []Backend{BackendQEMU, BackendRules} {
		limit := uint64(200_000_000)
		if budget > 0 {
			full, _ := runUnderTier(t, label, src, args, backend, TierInterp, 0, 0)
			limit = uint64(budget * float64(full.Stats.GuestInstrs))
		}
		base, baseRet, baseErr := runUnderTierBudget(t, src, args, backend, TierInterp, 0, 0, limit)
		if base.TierStats.ThreadedDispatches != 0 || base.TierStats.Promotions != 0 ||
			base.TierStats.NativeDispatches != 0 {
			t.Fatalf("%s %s: interp tier promoted blocks: %+v", label, backend, base.TierStats)
		}
		for _, cfg := range tierConfigs {
			e, ret, err := runUnderTierBudget(t, src, args, backend, cfg.tier, cfg.threshold, cfg.nativeThreshold, limit)
			tag := fmt.Sprintf("%s %s tier %s/th=%d/nth=%d budget %d", label, backend, cfg.tier, cfg.threshold, cfg.nativeThreshold, limit)
			if ret != baseRet || fmt.Sprint(err) != fmt.Sprint(baseErr) {
				t.Fatalf("%s: returned (%d, %v), interp tier (%d, %v)\n%s", tag, int32(ret), err, int32(baseRet), baseErr, src)
			}
			if !reflect.DeepEqual(e.Stats, base.Stats) {
				t.Fatalf("%s: Stats diverge from interp tier\ngot:    %+v\ninterp: %+v\n%s",
					tag, e.Stats, base.Stats, src)
			}
			if !e.Mem().Equal(base.Mem()) {
				t.Fatalf("%s: memory diverges from interp tier\n%s", tag, src)
			}
			// The access counters too: emitted code keeps them in registers
			// and drains them per block exit, bails included.
			if m, bm := e.Mem(), base.Mem(); m.Reads != bm.Reads || m.Writes != bm.Writes {
				t.Fatalf("%s: access counters %d/%d, interp tier %d/%d\n%s",
					tag, m.Reads, m.Writes, bm.Reads, bm.Writes, src)
			}
			if e.TierStats.ThunkBuildFails != 0 {
				t.Fatalf("%s: %d thunk builds failed on engine-generated code",
					tag, e.TierStats.ThunkBuildFails)
			}
			if (cfg.tier == TierThreaded || cfg.tier == TierNative) && e.TierStats.InterpDispatches != 0 {
				t.Fatalf("%s: eager tier fell back to the interpreter: %+v", tag, e.TierStats)
			}
			if cfg.tier == TierNative && NativeSupported() && e.TierStats.NativeDispatches == 0 {
				t.Fatalf("%s: native tier never executed native code: %+v", tag, e.TierStats)
			}
			got := e.TierStats.InterpDispatches + e.TierStats.ThreadedDispatches + e.TierStats.NativeDispatches
			if got != e.Stats.DispatchCount {
				t.Fatalf("%s: tier split %d does not sum to DispatchCount %d",
					tag, got, e.Stats.DispatchCount)
			}
		}
	}
}

// FuzzThreadedMatchesStep is the threaded tier's differential fuzz gate:
// random guest programs must produce bit-identical results, Stats, and
// memory whichever tier executes them. `go test -fuzz=FuzzThreadedMatchesStep`
// explores seeds beyond the fixed regression set.
func FuzzThreadedMatchesStep(f *testing.F) {
	for _, seed := range []int64{1, 7, 4242} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		src := genDBTProgram(r)
		args := []uint32{uint32(r.Int31n(2000) - 1000), uint32(r.Int31n(2000) - 1000)}
		checkTiersAgree(t, fmt.Sprintf("seed %d", seed), src, args, 0)
	})
}

// TestTiersAgreeFixed pins the differential on a deterministic set of
// random programs so plain `go test` exercises it without the fuzz driver.
func TestTiersAgreeFixed(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 3
	}
	r := rand.New(rand.NewSource(31337))
	for it := 0; it < iters; it++ {
		src := genDBTProgram(r)
		args := []uint32{uint32(r.Int31n(2000) - 1000), uint32(r.Int31n(2000) - 1000)}
		checkTiersAgree(t, fmt.Sprintf("iter %d", it), src, args, 0)
	}
}

// TestReadEnvMatchesRead32 pins the dispatch loop's shortcut: a word of
// the CPU state block read through the held env page is the word
// Memory.Read32 returns, counted as the same four bytes.
func TestReadEnvMatchesRead32(t *testing.T) {
	e, ret := runUnderTier(t, "readenv", dbtTestSrc, []uint32{20, 3}, BackendQEMU, TierAuto, 0, 0)
	m := e.Mem()
	for _, addr := range []uint32{EnvReg(0), EnvPC, EnvZF} {
		before := m.Reads
		got := e.readEnv(addr)
		if m.Reads != before+4 {
			t.Fatalf("readEnv(%#x) counted %d bytes, want 4", addr, m.Reads-before)
		}
		if want := m.Read32(addr); got != want {
			t.Fatalf("readEnv(%#x) = %#x, Read32 = %#x", addr, got, want)
		}
	}
	if got := e.readEnv(EnvReg(0)); got != ret {
		t.Fatalf("readEnv(r0) = %d, Run returned %d", got, ret)
	}
}

// promotedTBs counts cached blocks currently holding thunks.
func promotedTBs(e *Engine) int {
	n := 0
	for _, tb := range e.TBs() {
		if tb.thunks != nil {
			n++
		}
	}
	return n
}

// TestTierLifecycle walks a block through the full promotion/demotion
// lifecycle: cold blocks interpret, hot blocks promote at the threshold,
// Invalidate demotes the overlapping blocks, and an OfferRules hot-swap
// demotes everything with the cache flush — with TierStats agreeing with
// the cache contents at every step.
func TestTierLifecycle(t *testing.T) {
	opts := codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "lifecycle"}
	g, _ := compileGuest(t, dbtTestSrc, opts)
	store := learnedStore(t, dbtTestSrc, opts)
	e := NewEngine(g, BackendRules, store)
	e.PromoteThreshold = 2 // TierAuto zero value: promote quickly

	want, _ := nativeRun(t, g, "work", []uint32{200, 3})
	got, err := e.Run("work", []uint32{200, 3}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("auto tier returned %d, native %d", int32(got), int32(want))
	}
	ts := e.TierStats
	if ts.Promotions == 0 || ts.ThreadedDispatches == 0 {
		t.Fatalf("hot loop never promoted: %+v", ts)
	}
	if ts.InterpDispatches == 0 {
		t.Fatalf("no block interpreted before its promotion: %+v", ts)
	}
	promoted := promotedTBs(e)
	if promoted == 0 || uint64(promoted) != ts.Promotions-ts.Demotions {
		t.Fatalf("cache holds %d promoted blocks, TierStats says %d promotions - %d demotions",
			promoted, ts.Promotions, ts.Demotions)
	}

	// Invalidation demotes exactly the promoted blocks it removes.
	var victim *TB
	for _, tb := range e.TBs() {
		if tb.thunks != nil {
			victim = tb
			break
		}
	}
	beforeDem := e.TierStats.Demotions
	if n := e.Invalidate(victim.EntryGPC, victim.GuestLen); n == 0 {
		t.Fatal("Invalidate removed nothing")
	}
	if e.TierStats.Demotions == beforeDem {
		t.Fatal("invalidating a promoted block did not count a demotion")
	}

	// A rule hot-swap flushes the cache: every still-promoted block demotes,
	// and the engine stays correct (and re-promotes) on the next run.
	stillPromoted := uint64(promotedTBs(e))
	beforeDem = e.TierStats.Demotions
	e.OfferRules(store)
	got, err = e.Run("work", []uint32{200, 3}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-swap run returned %d, native %d", int32(got), int32(want))
	}
	if e.TierStats.Demotions != beforeDem+stillPromoted {
		t.Fatalf("hot-swap flush demoted %d blocks, %d were promoted",
			e.TierStats.Demotions-beforeDem, stillPromoted)
	}
	if promotedTBs(e) == 0 {
		t.Fatal("retranslated hot blocks never re-promoted after the swap")
	}

	// TierInterp never threads even with thunks conceptually available.
	ei := NewEngine(g, BackendQEMU, nil)
	ei.Tier = TierInterp
	if _, err := ei.Run("work", []uint32{200, 3}, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if ei.TierStats.ThreadedDispatches != 0 || ei.TierStats.Promotions != 0 {
		t.Fatalf("TierInterp executed threaded code: %+v", ei.TierStats)
	}
}

// TestParseTier pins the flag syntax.
func TestParseTier(t *testing.T) {
	for s, want := range map[string]Tier{
		"": TierAuto, "auto": TierAuto, "interp": TierInterp,
		"threaded": TierThreaded, "native": TierNative,
	} {
		got, err := ParseTier(s)
		if err != nil || got != want {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", s, got, err, want)
		}
		if s != "" && got.String() != s {
			t.Errorf("Tier(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseTier("jit"); err == nil {
		t.Error("ParseTier accepted an unknown tier")
	}
}

// FuzzNativeMatchesStep is the native tier's engine-level differential
// fuzz gate, mirroring FuzzThreadedMatchesStep one tier up: random guest
// programs must produce bit-identical results, Stats, and memory whether
// the Step switch or emitted machine code executes them (checkTiersAgree
// includes the TierNative and auto-to-native configurations). Each seed
// also draws a guest-instruction budget, so budget expiry and bails land
// inside chains of native links. On hosts without the back end it pins
// the degradation path instead.
func FuzzNativeMatchesStep(f *testing.F) {
	// Seed 21 runs out of budget after 26 links.
	for _, seed := range []int64{2, 11, 21, 90210} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		src := genDBTProgram(r)
		args := []uint32{uint32(r.Int31n(2000) - 1000), uint32(r.Int31n(2000) - 1000)}
		// A random budget: a quarter of the seeds complete, the rest stop
		// on the budget error somewhere in the run.
		checkTiersAgree(t, fmt.Sprintf("native seed %d", seed), src, args, 0.01+r.Float64()*1.32)
	})
}

// nativeTBs counts cached blocks currently holding live native code.
func nativeTBs(e *Engine) int {
	n := 0
	for _, tb := range e.TBs() {
		if tb.native != nil {
			n++
		}
	}
	return n
}

// TestThreeTierLifecycle walks blocks through the full three-tier ladder:
// cold blocks interpret, warm blocks thread at the promote threshold, hot
// blocks go native at the higher native threshold, Invalidate demotes
// from both tiers, and an OfferRules hot-swap flush drops every native
// block and resets the code buffer — with TierStats agreeing with the
// cache contents at every step.
func TestThreeTierLifecycle(t *testing.T) {
	if !NativeSupported() {
		t.Skip("native back end not available on this host")
	}
	opts := codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "lifecycle3"}
	g, _ := compileGuest(t, dbtTestSrc, opts)
	store := learnedStore(t, dbtTestSrc, opts)
	e := NewEngine(g, BackendRules, store)
	e.PromoteThreshold = 2
	e.NativeThreshold = 4

	want, _ := nativeRun(t, g, "work", []uint32{200, 3})
	got, err := e.Run("work", []uint32{200, 3}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("auto tier returned %d, reference %d", int32(got), int32(want))
	}
	ts := e.TierStats
	if ts.InterpDispatches == 0 || ts.ThreadedDispatches == 0 || ts.NativeDispatches == 0 {
		t.Fatalf("hot loop did not climb all three tiers: %+v", ts)
	}
	if ts.NativePromotions == 0 {
		t.Fatalf("no block promoted to native: %+v", ts)
	}
	live := nativeTBs(e)
	if live == 0 || uint64(live) != ts.NativePromotions-ts.NativeDemotions {
		t.Fatalf("cache holds %d native blocks, TierStats says %d promotions - %d demotions",
			live, ts.NativePromotions, ts.NativeDemotions)
	}

	// Invalidation demotes the native block it removes.
	var victim *TB
	for _, tb := range e.TBs() {
		if tb.native != nil {
			victim = tb
			break
		}
	}
	beforeDem := e.TierStats.NativeDemotions
	if n := e.Invalidate(victim.EntryGPC, victim.GuestLen); n == 0 {
		t.Fatal("Invalidate removed nothing")
	}
	if e.TierStats.NativeDemotions == beforeDem {
		t.Fatal("invalidating a native block did not count a native demotion")
	}

	// A rule hot-swap flush demotes every still-native block, resets the
	// code buffer generation, and the engine re-promotes on the next run.
	stillNative := uint64(nativeTBs(e))
	beforeDem = e.TierStats.NativeDemotions
	genBefore := e.jit.Gen()
	e.OfferRules(store)
	got, err = e.Run("work", []uint32{200, 3}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-swap run returned %d, reference %d", int32(got), int32(want))
	}
	if e.TierStats.NativeDemotions != beforeDem+stillNative {
		t.Fatalf("hot-swap flush demoted %d native blocks, %d were native",
			e.TierStats.NativeDemotions-beforeDem, stillNative)
	}
	if e.jit.Gen() == genBefore {
		t.Fatal("hot-swap flush did not reset the code buffer generation")
	}
	if nativeTBs(e) == 0 {
		t.Fatal("retranslated hot blocks never re-promoted to native after the swap")
	}

	// TierInterp never runs native code even with the back end available.
	ei := NewEngine(g, BackendQEMU, nil)
	ei.Tier = TierInterp
	if _, err := ei.Run("work", []uint32{200, 3}, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if ei.TierStats.NativeDispatches != 0 || ei.TierStats.NativePromotions != 0 {
		t.Fatalf("TierInterp executed native code: %+v", ei.TierStats)
	}
}

// TestTBRunState walks single blocks through every transition of the
// per-TB run state (TB.tier / TB.climbAt) — install under each engine
// tier, the TierAuto climb, the build-failure and buffer-failure pins,
// the drop, and the stale-buffer backstop — and pins the resulting tier
// and TierStats. The blocks are hand-made so each row isolates one
// transition; exec, climb and Invalidate are the engine's own.
func TestTBRunState(t *testing.T) {
	good := []x86.Instr{x86.MustParse("movl $1, %eax")}
	// No such opcode: CheckCode rejects it, so BuildThunks fails; natively
	// it compiles to nothing but a bail stub, a native build failure too.
	noThunks := []x86.Instr{{Op: x86.Op(250)}}
	// Valid (so it threads), but outside the emitter's repertoire: two
	// memory accesses. All-bail natively.
	noNative := []x86.Instr{{Op: x86.PUSH, Dst: x86.MemOp(x86.MemRef{HasBase: true, Base: x86.EAX})}}

	type step struct {
		op string // "exec" n times | "climb" | "drop" | "reset-jit"
		n  int
	}
	exec := func(n int) step { return step{"exec", n} }
	rows := []struct {
		name       string
		tier       Tier
		th, nth    int
		jitLimit   int
		host       []x86.Instr
		steps      []step
		needNative bool
		wantTier   Tier
		wantClimb  uint64
		want       TierStats
	}{
		{name: "auto/install", tier: TierAuto, th: 2, nth: 4, host: good,
			wantTier: TierInterp, wantClimb: 2},
		{name: "auto/climb-threaded", tier: TierAuto, th: 2, nth: 4, host: good, steps: []step{exec(2)},
			wantTier: TierThreaded, wantClimb: 4,
			want: TierStats{InterpDispatches: 2, Promotions: 1}},
		{name: "auto/climb-native", tier: TierAuto, th: 2, nth: 4, host: good, steps: []step{exec(5)}, needNative: true,
			wantTier: TierNative, wantClimb: noClimb,
			want: TierStats{InterpDispatches: 2, ThreadedDispatches: 2, NativeDispatches: 1, Promotions: 1, NativePromotions: 1}},
		{name: "auto/equal-thresholds", tier: TierAuto, th: 2, nth: 2, host: good, steps: []step{exec(2)}, needNative: true,
			wantTier: TierNative, wantClimb: noClimb,
			want: TierStats{InterpDispatches: 2, Promotions: 1, NativePromotions: 1}},
		{name: "interp/pinned", tier: TierInterp, host: good, steps: []step{exec(100)},
			wantTier: TierInterp, wantClimb: noClimb,
			want: TierStats{InterpDispatches: 100}},
		{name: "threaded/install", tier: TierThreaded, host: good, steps: []step{exec(100)},
			wantTier: TierThreaded, wantClimb: noClimb,
			want: TierStats{ThreadedDispatches: 100, Promotions: 1}},
		{name: "native/install", tier: TierNative, host: good, steps: []step{exec(3)}, needNative: true,
			wantTier: TierNative, wantClimb: noClimb,
			want: TierStats{NativeDispatches: 3, NativePromotions: 1}},
		{name: "auto/thunk-build-fail-pins", tier: TierAuto, th: 2, nth: 4, host: noThunks, steps: []step{{op: "climb"}},
			wantTier: TierInterp, wantClimb: noClimb,
			want: TierStats{ThunkBuildFails: 1}},
		{name: "native/both-builds-fail", tier: TierNative, host: noThunks, needNative: true,
			wantTier: TierInterp, wantClimb: noClimb,
			want: TierStats{NativeBuildFails: 1, ThunkBuildFails: 1}},
		{name: "auto/native-build-fail-pins", tier: TierAuto, th: 2, nth: 4, host: noNative, steps: []step{exec(8)}, needNative: true,
			wantTier: TierThreaded, wantClimb: noClimb,
			want: TierStats{InterpDispatches: 2, ThreadedDispatches: 6, Promotions: 1, NativeBuildFails: 1}},
		{name: "native/buffer-fail-pins", tier: TierNative, jitLimit: 1, host: good, steps: []step{exec(3)}, needNative: true,
			wantTier: TierThreaded, wantClimb: noClimb,
			want: TierStats{ThreadedDispatches: 3, Promotions: 1, NativeBufferFails: 1}},
		{name: "auto/buffer-fail-pins", tier: TierAuto, th: 2, nth: 4, jitLimit: 1, host: good, steps: []step{exec(8)}, needNative: true,
			wantTier: TierThreaded, wantClimb: noClimb,
			want: TierStats{InterpDispatches: 2, ThreadedDispatches: 6, Promotions: 1, NativeBufferFails: 1}},
		{name: "auto/drop-threaded", tier: TierAuto, th: 2, nth: 4, host: good, steps: []step{exec(2), {op: "drop"}},
			wantTier: TierThreaded, wantClimb: 4,
			want: TierStats{InterpDispatches: 2, Promotions: 1, Demotions: 1}},
		{name: "auto/drop-native", tier: TierAuto, th: 2, nth: 4, host: good, steps: []step{exec(4), {op: "drop"}}, needNative: true,
			wantTier: TierNative, wantClimb: noClimb,
			want: TierStats{InterpDispatches: 2, ThreadedDispatches: 2, Promotions: 1, NativePromotions: 1, Demotions: 1, NativeDemotions: 1}},
		{name: "auto/stale-buffer-backstop", tier: TierAuto, th: 2, nth: 4, host: good,
			steps: []step{exec(4), {op: "reset-jit"}, exec(2)}, needNative: true,
			wantTier: TierNative, wantClimb: noClimb,
			want: TierStats{InterpDispatches: 2, ThreadedDispatches: 3, NativeDispatches: 1,
				Promotions: 1, NativePromotions: 2, NativeDemotions: 1}},
		{name: "native/stale-buffer-backstop", tier: TierNative, host: good,
			steps: []step{exec(2), {op: "reset-jit"}, exec(2)}, needNative: true,
			wantTier: TierNative, wantClimb: noClimb,
			want: TierStats{NativeDispatches: 4, NativePromotions: 2, NativeDemotions: 1}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.needNative && !NativeSupported() {
				t.Skip("native back end not available on this host")
			}
			e := NewEngine(loopGuest(), BackendQEMU, nil)
			e.Tier, e.PromoteThreshold, e.NativeThreshold, e.JITLimit = row.tier, row.th, row.nth, row.jitLimit
			tb := &TB{GuestLen: 1, Host: row.host, HostCosts: make([]uint64, len(row.host))}
			e.install(tb)
			e.tbs[0], e.tbCount = tb, 1
			for _, s := range row.steps {
				switch s.op {
				case "exec":
					for i := 0; i < s.n; i++ {
						e.exec(tb)
					}
				case "climb":
					e.climb(tb)
				case "drop":
					if n := e.Invalidate(0, 1); n != 1 || e.tbs[0] != nil {
						t.Fatalf("Invalidate dropped %d blocks", n)
					}
				case "reset-jit":
					e.jit.Reset()
				}
			}
			if tb.tier != row.wantTier || tb.climbAt != row.wantClimb {
				t.Errorf("run state (%s, climbAt %d), want (%s, climbAt %d)", tb.tier, tb.climbAt, row.wantTier, row.wantClimb)
			}
			if e.TierStats != row.want {
				t.Errorf("TierStats %+v\n           want %+v", e.TierStats, row.want)
			}
			if tb.tier == TierThreaded && tb.thunks == nil || tb.tier == TierNative && tb.native == nil {
				t.Errorf("tier %s without its form: thunks %v native %v", tb.tier, tb.thunks != nil, tb.native != nil)
			}
		})
	}
}
