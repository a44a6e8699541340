package bench

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sort"
	"testing"

	"dbtrules/codegen"
	"dbtrules/corpus"
	"dbtrules/dbt"
	"dbtrules/prog"
	"dbtrules/rules"
)

// tierSnapshot runs one benchmark × backend under the given tier and
// returns the canonical StatsSnapshot encoding.
func tierSnapshot(t *testing.T, b *corpus.Benchmark, backend dbt.Backend, store *rules.Store, tier dbt.Tier) []byte {
	t.Helper()
	g, _, err := CompilePair(b, codegen.StyleLLVM, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := dbt.NewEngine(g, backend, store)
	e.Tier = tier
	if tier == dbt.TierAuto {
		// Maximal coverage of both promotion edges for the differential:
		// blocks thread on their first re-execution and go native right after.
		e.PromoteThreshold = 1
		e.NativeThreshold = 2
	}
	if _, err := e.Run("bench", []uint32{uint32(b.TestN), 12345}, 4_000_000_000); err != nil {
		t.Fatalf("%s/%s tier %s: %v", b.Name, backend, tier, err)
	}
	snap := e.Stats.Snapshot()
	data, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTierGoldenDifferential is the determinism gate for the faster
// tiers: every corpus program, under every backend, must produce a
// byte-for-byte identical StatsSnapshot whichever tier executes it. The
// interpreter tier is the reference (it is the seed engine's loop);
// threaded, native, and aggressive-auto must match it exactly — the
// faster tiers are wall-clock tiers only, invisible to the modeled
// machine. On hosts without the native back end the native tier runs its
// threaded degradation, which must also match. Together with
// TestStatsGolden (which runs the default auto tier against the recorded
// golden file) this pins all tiers to the recorded cycle model.
func TestTierGoldenDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus sweep")
	}
	for i := range corpus.All() {
		b := &corpus.All()[i]
		store, err := LeaveOneOut(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []dbt.Backend{dbt.BackendQEMU, dbt.BackendRules, dbt.BackendJIT} {
			var st *rules.Store
			if backend == dbt.BackendRules {
				st = store
			}
			ref := tierSnapshot(t, b, backend, st, dbt.TierInterp)
			for _, tier := range []dbt.Tier{dbt.TierThreaded, dbt.TierNative, dbt.TierAuto} {
				got := tierSnapshot(t, b, backend, st, tier)
				if !bytes.Equal(got, ref) {
					t.Errorf("%s/%s: tier %s snapshot diverges from interp\n got  %s\n want %s",
						b.Name, backend, tier, got, ref)
				}
			}
		}
	}
}

// warmEngine returns an engine pinned to tier that has run bench(args)
// once, so every block is translated and in its final form.
func warmEngine(t *testing.T, g *prog.ARM, backend dbt.Backend, store *rules.Store, tier dbt.Tier, args []uint32) *dbt.Engine {
	t.Helper()
	e := dbt.NewEngine(g, backend, store)
	e.Tier = tier
	if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
		t.Fatal(err)
	}
	return e
}

// warmRunNS times warm bench(args) runs of e and returns ns per run.
func warmRunNS(e *dbt.Engine, args []uint32) int64 {
	return testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
				b.Fatal(err)
			}
		}
	}).NsPerOp()
}

// TestDispatchTierSpeedup gates the tier-ladder perf numbers: a warm mcf
// emulation under the threaded tier must be at least 15% faster than the
// switch-interpreter tier, and (when the back end is available) the
// native tier at least 30% faster than threaded. The pre-bound thunks
// eliminate Step's per-instruction Instr copy plus its opcode and
// operand-kind switches; emitted machine code then eliminates the Go
// interpreter entirely — both are worth far more than their margins in
// isolation (EXPERIMENTS records 3.3x and 3.8x), and the measurement is
// one goroutine, so the gate runs on any machine rather than skipping
// below some CPU count.
func TestDispatchTierSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate")
	}
	mcf, _ := corpus.ByName("mcf")
	g, _, err := CompilePair(mcf, codegen.StyleLLVM, 2)
	if err != nil {
		t.Fatal(err)
	}
	args := []uint32{uint32(mcf.TestN), 12345}
	measure := func(tier dbt.Tier) int64 {
		return warmRunNS(warmEngine(t, g, dbt.BackendQEMU, nil, tier, args), args)
	}
	// Best of three per tier: the gate compares achievable speeds, not
	// scheduler noise.
	best := func(tier dbt.Tier) int64 {
		b := measure(tier)
		for i := 0; i < 2; i++ {
			if v := measure(tier); v < b {
				b = v
			}
		}
		return b
	}
	interp := best(dbt.TierInterp)
	threaded := best(dbt.TierThreaded)
	speedup := float64(interp) / float64(threaded)
	t.Logf("warm mcf run: interp %v ns/op, threaded %v ns/op, speedup %.2fx",
		interp, threaded, speedup)
	if speedup < 1.15 {
		t.Errorf("threaded tier speedup %.2fx, want >= 1.15x", speedup)
	}
	if !dbt.NativeSupported() {
		t.Log("native back end unavailable; skipping the native gate")
		return
	}
	native := best(dbt.TierNative)
	nspeed := float64(threaded) / float64(native)
	t.Logf("warm mcf run: native %v ns/op, native-vs-threaded speedup %.2fx",
		native, nspeed)
	if nspeed < 1.3 {
		t.Errorf("native tier speedup over threaded %.2fx, want >= 1.3x", nspeed)
	}
}

// TestRulesNativeBeatsQemuNative gates the paper's headline on the wall
// clock in the top tier: a warm mcf emulation of the rule translation
// must take no longer under emitted machine code than the TCG-style
// translation does. The rules run executes ~18% fewer host instructions;
// before the emitter resolved constant-address accesses at compile time
// and stored only live flags it paid more for each (ROADMAP's first open
// item). Medians of five alternating measurements. A margin of a few
// percent cannot be a tier-1 gate on a shared machine, so this test
// skips below 4 CPUs and is a tripwire only: the measurement of record
// is rules_guest_mips against qemu_guest_mips on the steady-native
// workload of the repository benchmark, as cmd/benchcmp reports it.
func TestRulesNativeBeatsQemuNative(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate")
	}
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		t.Skipf("wall-clock gate needs >= 4 CPUs, have %d", procs)
	}
	if !dbt.NativeSupported() {
		t.Skip("native back end not available on this host")
	}
	mcf, _ := corpus.ByName("mcf")
	g, _, err := CompilePair(mcf, codegen.StyleLLVM, 2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := LeaveOneOut("mcf")
	if err != nil {
		t.Fatal(err)
	}
	args := []uint32{uint32(mcf.TestN), 12345}
	rulesEng := warmEngine(t, g, dbt.BackendRules, store, dbt.TierNative, args)
	qemuEng := warmEngine(t, g, dbt.BackendQEMU, nil, dbt.TierNative, args)
	const samples = 5
	var rulesNS, qemuNS [samples]int64
	for i := 0; i < samples; i++ {
		rulesNS[i], qemuNS[i] = warmRunNS(rulesEng, args), warmRunNS(qemuEng, args)
	}
	median := func(v [samples]int64) int64 {
		sort.Slice(v[:], func(i, j int) bool { return v[i] < v[j] })
		return v[samples/2]
	}
	r, q := median(rulesNS), median(qemuNS)
	t.Logf("warm mcf native: rules %v ns/op, qemu %v ns/op, rules/qemu %.3f (samples %v vs %v)",
		r, q, float64(r)/float64(q), rulesNS, qemuNS)
	if r > q {
		t.Errorf("rules-native %v ns/op is slower than qemu-native %v ns/op", r, q)
	}
}

// TestNativeLinkRoundTrips pins the exact counter behind native-to-native
// links: on warm mcf under the default tier ladder, at most one dispatch
// in a hundred goes back through the Go dispatch loop, for both
// backends; every other one is a link the trampoline's stub followed.
// Without links the ratio is 1 by construction.
func TestNativeLinkRoundTrips(t *testing.T) {
	if !dbt.NativeSupported() {
		t.Skip("native back end not available on this host")
	}
	mcf, _ := corpus.ByName("mcf")
	g, _, err := CompilePair(mcf, codegen.StyleLLVM, 2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := LeaveOneOut("mcf")
	if err != nil {
		t.Fatal(err)
	}
	args := []uint32{uint32(mcf.TestN), 12345}
	for _, backend := range []dbt.Backend{dbt.BackendQEMU, dbt.BackendRules} {
		var st *rules.Store
		if backend == dbt.BackendRules {
			st = store
		}
		e := warmEngine(t, g, backend, st, dbt.TierAuto, args)
		stats, tiers := e.Stats, e.TierStats
		if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
			t.Fatal(err)
		}
		dispatches := e.Stats.DispatchCount - stats.DispatchCount
		links := e.TierStats.NativeLinks - tiers.NativeLinks
		native := e.TierStats.NativeDispatches - tiers.NativeDispatches
		ratio := float64(dispatches-links) / float64(dispatches)
		t.Logf("%s: %d dispatches, %d native, %d linked: %.4f Go round trips per dispatch",
			backend, dispatches, native, links, ratio)
		if links > native {
			t.Errorf("%s: %d links exceed %d native dispatches", backend, links, native)
		}
		if ratio > 0.01 {
			t.Errorf("%s: %.4f Go round trips per dispatch, want <= 0.01", backend, ratio)
		}
	}
}

// TestWarmPinnedRunAllocs pins the allocation-free warm Run: once every
// block is translated and in its final form, a Run pinned to the native
// or the threaded tier allocates nothing.
func TestWarmPinnedRunAllocs(t *testing.T) {
	mcf, _ := corpus.ByName("mcf")
	g, _, err := CompilePair(mcf, codegen.StyleLLVM, 2)
	if err != nil {
		t.Fatal(err)
	}
	args := []uint32{uint32(mcf.TestN), 12345}
	for _, tier := range []dbt.Tier{dbt.TierNative, dbt.TierThreaded} {
		e := warmEngine(t, g, dbt.BackendQEMU, nil, tier, args)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm %s-tier mcf Run: %v allocations, want 0", tier, allocs)
		}
	}
}
