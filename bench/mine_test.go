package bench

import (
	"testing"

	"dbtrules/codegen"
	"dbtrules/corpus"
	"dbtrules/learn"
	"dbtrules/mine"
	"dbtrules/rules"
)

// TestMineDifferentialGate is the continuous-mining subsystem's
// acceptance gate: seed a store with the offline line-paired rules for
// mcf, run the flywheel for a few rounds, and require that (a) mining
// changed nothing the guest can observe — return value and dynamic
// guest instruction count are identical before and after — while (b)
// dynamic rule coverage strictly increased, carried by (c) at least one
// rule in the mined ID space the line-pairing learner could not find.
func TestMineDifferentialGate(t *testing.T) {
	if testing.Short() {
		t.Skip("mining rounds are slow under -short")
	}
	b, ok := corpus.ByName("mcf")
	if !ok {
		t.Fatal("mcf missing from corpus")
	}
	g, h, err := CompilePair(b, codegen.StyleLLVM, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LearnBenchmark(b, codegen.StyleLLVM, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := rules.NewStore()
	if added, _ := store.AddAll(res.Rules); added == 0 {
		t.Fatal("no baseline rules installed")
	}
	baselineCount := store.Count()

	pair := learn.Pair{Name: b.Name, Guest: g, Host: h}
	args := []uint32{uint32(b.TestN), 12345}
	before, err := mine.Profile(&pair, store, args, 500_000_000)
	if err != nil {
		t.Fatal(err)
	}

	m := mine.NewMiner(store, &mine.Options{Budget: 192})
	for round := 1; round <= 3; round++ {
		prof := before
		if round > 1 {
			prof, err = mine.Profile(&pair, store, args, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			m.EvictCold(prof.RuleHits)
		}
		st := m.Round(&mine.Context{
			Pairs: []learn.Pair{pair},
			Hot:   prof.Hot,
			Store: store,
		})
		t.Logf("round %d: proposed %d submitted %d verified %d added %d evicted %d",
			st.Round, st.Proposed, st.Submitted, st.Verified, st.Added, st.Evicted)
	}

	after, err := mine.Profile(&pair, store, args, 500_000_000)
	if err != nil {
		t.Fatal(err)
	}

	// (a) Semantics: byte-identical observable execution.
	if after.Ret != before.Ret {
		t.Fatalf("mining changed the return value: %d vs %d", after.Ret, before.Ret)
	}
	if after.Stats.GuestInstrs != before.Stats.GuestInstrs {
		t.Fatalf("mining changed the dynamic guest instruction count: %d vs %d",
			after.Stats.GuestInstrs, before.Stats.GuestInstrs)
	}

	// (b) Coverage: strictly more guest instructions executed under rule
	// translations.
	if after.Stats.DynCovered <= before.Stats.DynCovered {
		t.Fatalf("mining did not raise dynamic coverage: %d -> %d",
			before.Stats.DynCovered, after.Stats.DynCovered)
	}
	t.Logf("dyn covered %d -> %d (+%.1f%%), static %d -> %d",
		before.Stats.DynCovered, after.Stats.DynCovered,
		100*float64(after.Stats.DynCovered-before.Stats.DynCovered)/float64(before.Stats.DynCovered),
		before.Stats.StaticCovered, after.Stats.StaticCovered)

	// (c) The gain is carried by mined rules, and eviction never dropped
	// the store below its seeded baseline.
	mined := 0
	for _, r := range store.All() {
		if mine.IsMinedID(r.ID) {
			mined++
		}
	}
	if mined == 0 {
		t.Fatal("no rule in the mined ID space survived")
	}
	if store.Count() < baselineCount {
		t.Fatalf("store shrank below the seed baseline: %d < %d", store.Count(), baselineCount)
	}
	t.Logf("%d mined rules installed, store %d -> %d", mined, baselineCount, store.Count())
}
