package bench

import (
	"testing"

	"dbtrules/arm"
	"dbtrules/codegen"
	"dbtrules/corpus"
	"dbtrules/dbt"
	"dbtrules/rules"
)

// corpusRuleStore installs the full Table-1 learned rule set (all twelve
// benchmarks, llvm O2) in one store — the "learned corpus rule set" the
// translation fast path is benchmarked against.
func corpusRuleStore(tb testing.TB) *rules.Store {
	tb.Helper()
	rows, err := Table1()
	if err != nil {
		tb.Fatal(err)
	}
	store := rules.NewStore()
	for _, row := range rows {
		for _, r := range row.Rules {
			store.Add(r)
		}
	}
	return store
}

// guestBlocks splits one benchmark's guest code into per-function blocks
// — the shape Engine.translate scans rule windows over.
func guestBlocks(tb testing.TB, name string) [][]arm.Instr {
	tb.Helper()
	b, ok := corpus.ByName(name)
	if !ok {
		tb.Fatalf("no benchmark %q", name)
	}
	g, _, err := CompilePair(b, codegen.StyleLLVM, 2)
	if err != nil {
		tb.Fatal(err)
	}
	var blocks [][]arm.Instr
	for _, f := range g.Funcs {
		if f.End > f.Entry {
			blocks = append(blocks, g.Code[f.Entry:f.End])
		}
	}
	return blocks
}

// scanStore runs the locked-store longest-match scan over every position
// of every block (the pre-fast-path translation loop's access pattern).
func scanStore(store *rules.Store, blocks [][]arm.Instr) int {
	hits := 0
	for _, blk := range blocks {
		for i := range blk {
			if _, _, _, ok := store.LongestMatch(blk, i); ok {
				hits++
			}
		}
	}
	return hits
}

// scanScanner is scanStore on a frozen snapshot through a reused
// BlockScanner (lock-free, O(1) prefix-sum keys, first-opcode length
// masks — exactly what Engine.translate uses).
func scanScanner(sc *rules.BlockScanner, blocks [][]arm.Instr) int {
	hits := 0
	for _, blk := range blocks {
		sc.Reset(blk)
		for i := range blk {
			if _, _, _, ok := sc.LongestMatch(i); ok {
				hits++
			}
		}
	}
	return hits
}

// BenchmarkLongestMatch compares §4's longest-match application scan on
// the learned corpus rule set across the reference and the engine path:
// the locked store, and the per-block scanner over the frozen index. One
// op = a full scan of every window position in the gcc guest binary.
func BenchmarkLongestMatch(b *testing.B) {
	store := corpusRuleStore(b)
	blocks := guestBlocks(b, "gcc")
	ix := store.Freeze()
	want := scanStore(store, blocks)
	if got := scanScanner(ix.NewBlockScanner(blocks[0]), blocks); got != want {
		b.Fatalf("scanner found %d matches, store %d", got, want)
	}
	b.Logf("rules=%d blocks=%d hits=%d", store.Count(), len(blocks), want)

	b.Run("store-locked", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			scanStore(store, blocks)
		}
	})
	b.Run("scanner", func(b *testing.B) {
		sc := ix.NewBlockScanner(blocks[0])
		for n := 0; n < b.N; n++ {
			scanScanner(sc, blocks)
		}
	})
}

// BenchmarkDispatch measures a warm end-to-end Run (translation already
// cached): direct-mapped TB dispatch, per-TB successor chaining checks,
// and the exec loop under each execution tier. One op = one full mcf
// test-workload emulation. The bare qemu/rules variants run the default
// auto tier; the -interp, -threaded, and -native variants pin the tier.
// The threaded/interp ratio is the token-threading win and the
// native/threaded ratio the machine-code win TestDispatchTierSpeedup
// gates on (the -native variants degrade to threaded on hosts without
// the back end).
func BenchmarkDispatch(b *testing.B) {
	mcf, _ := corpus.ByName("mcf")
	g, _, err := CompilePair(mcf, codegen.StyleLLVM, 2)
	if err != nil {
		b.Fatal(err)
	}
	args := []uint32{uint32(mcf.TestN), 12345}
	run := func(b *testing.B, backend dbt.Backend, store *rules.Store, tier dbt.Tier) {
		e := dbt.NewEngine(g, backend, store)
		e.Tier = tier
		if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
				b.Fatal(err)
			}
		}
	}
	mcfRules := func(b *testing.B) *rules.Store {
		store, err := LeaveOneOut("mcf")
		if err != nil {
			b.Fatal(err)
		}
		return store
	}
	b.Run("qemu", func(b *testing.B) { run(b, dbt.BackendQEMU, nil, dbt.TierAuto) })
	b.Run("rules", func(b *testing.B) { run(b, dbt.BackendRules, mcfRules(b), dbt.TierAuto) })
	b.Run("qemu-interp", func(b *testing.B) { run(b, dbt.BackendQEMU, nil, dbt.TierInterp) })
	b.Run("qemu-threaded", func(b *testing.B) { run(b, dbt.BackendQEMU, nil, dbt.TierThreaded) })
	b.Run("rules-interp", func(b *testing.B) { run(b, dbt.BackendRules, mcfRules(b), dbt.TierInterp) })
	b.Run("rules-threaded", func(b *testing.B) { run(b, dbt.BackendRules, mcfRules(b), dbt.TierThreaded) })
	b.Run("qemu-native", func(b *testing.B) { run(b, dbt.BackendQEMU, nil, dbt.TierNative) })
	b.Run("rules-native", func(b *testing.B) { run(b, dbt.BackendRules, mcfRules(b), dbt.TierNative) })
}

// TestLongestMatchSpeedup gates the headline fast-path number: the frozen
// index must run §4's longest-match scan at least 3x faster than the
// locked store on the learned corpus rule set. (Measured speedups are far
// higher; 3x keeps the gate robust on loaded CI machines.)
func TestLongestMatchSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate")
	}
	store := corpusRuleStore(t)
	blocks := guestBlocks(t, "gcc")
	ix := store.Freeze()
	if got, want := scanScanner(ix.NewBlockScanner(blocks[0]), blocks), scanStore(store, blocks); got != want {
		t.Fatalf("scanner found %d matches, store %d", got, want)
	}
	slow := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			scanStore(store, blocks)
		}
	})
	fast := testing.Benchmark(func(b *testing.B) {
		sc := ix.NewBlockScanner(blocks[0])
		for n := 0; n < b.N; n++ {
			scanScanner(sc, blocks)
		}
	})
	speedup := float64(slow.NsPerOp()) / float64(fast.NsPerOp())
	t.Logf("longest-match scan: store %v/op, scanner %v/op, speedup %.1fx",
		slow.NsPerOp(), fast.NsPerOp(), speedup)
	if speedup < 3 {
		t.Errorf("frozen-index speedup %.2fx, want >= 3x", speedup)
	}
}
