package dbt

import (
	"fmt"
	"reflect"
	"testing"

	"dbtrules/codegen"
	"dbtrules/internal/telemetry"
	"dbtrules/x86/native"
)

// checkLinks requires every link record in the table to belong to a block
// still in the code cache with live native code, and every link to lead
// to such a block's current entry and record.
func checkLinks(t *testing.T, label string, e *Engine) {
	t.Helper()
	for id, tb := range e.linkTBs {
		if tb == nil {
			continue
		}
		if e.tbs[tb.EntryGPC] != tb || tb.link == nil || tb.link.ID != int64(id) || tb.tier != TierNative {
			t.Fatalf("%s: link table row %d holds a block not live on the native tier", label, id)
		}
		for _, s := range tb.link.Succ {
			if s.GPC == native.NoLink {
				continue
			}
			to := e.tbs[s.GPC]
			if to == nil || to.link != s.Rec || to.nativeEntry != s.Entry {
				t.Fatalf("%s: block %d links to %d, which is not that live native block", label, tb.EntryGPC, s.GPC)
			}
		}
	}
}

// TestNativeLinkBreakers runs one program on a TierNative engine, whose
// blocks link to each other from their second traversal on, and on a
// TierInterp engine, through the same sequence of Runs and engine
// operations, one row per way a chain of links must end or must not
// start. Results, errors, Stats and the memory access counters must be
// identical; each row also checks what its breaker promises.
func TestNativeLinkBreakers(t *testing.T) {
	if !NativeSupported() {
		t.Skip("native back end not available on this host")
	}
	opts := codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "links"}
	g, _ := compileGuest(t, dbtTestSrc, opts)
	store := learnedStore(t, dbtTestSrc, opts)
	args := []uint32{100, 7}
	const budget = 100_000_000
	// A full Run's guest instructions, for the budget row.
	ref := NewEngine(g, BackendRules, store)
	if _, err := ref.Run("work", args, budget); err != nil {
		t.Fatal(err)
	}
	full := ref.Stats.GuestInstrs

	warm := func(e *Engine) (uint32, error) { return e.Run("work", args, budget) }
	rows := []struct {
		name  string
		setup func(e *Engine)
		// steps runs after one warm-up Run; its result is compared.
		steps func(t *testing.T, e *Engine) (uint32, error)
		// linked: the final steps must (true) or must not (false) take links.
		linked bool
		check  func(t *testing.T, e, base *Engine)
	}{
		{name: "budget", linked: true,
			// The budget counts the engine's lifetime Stats.GuestInstrs:
			// this one runs out halfway through the second Run.
			steps: func(t *testing.T, e *Engine) (uint32, error) { return e.Run("work", args, full+full/2) },
			check: func(t *testing.T, e, base *Engine) {
				if e.Stats.GuestInstrs >= 2*full {
					t.Errorf("budget run executed %d guest instructions, want it cut short", e.Stats.GuestInstrs-full)
				}
			}},
		{name: "rule-hits", linked: false,
			setup: func(e *Engine) { e.EnableRuleHits() },
			steps: func(t *testing.T, e *Engine) (uint32, error) { return warm(e) },
			check: func(t *testing.T, e, base *Engine) {
				if len(base.RuleHits()) == 0 || !reflect.DeepEqual(e.RuleHits(), base.RuleHits()) {
					t.Errorf("RuleHits %v, interp %v", e.RuleHits(), base.RuleHits())
				}
			}},
		{name: "telemetry", linked: false,
			setup: func(e *Engine) { e.SetTelemetry(telemetry.New(0)) },
			steps: func(t *testing.T, e *Engine) (uint32, error) { return warm(e) },
			check: func(t *testing.T, e, base *Engine) {
				got, want := e.tel.reg.Snapshot(false), base.tel.reg.Snapshot(false)
				for _, name := range []string{"dbt_dispatch_total", "dbt_chain_hits_total", "dbt_guest_instrs_total"} {
					if got.Counters[name] != want.Counters[name] || got.Counters[name] == 0 {
						t.Errorf("%s = %d, interp %d", name, got.Counters[name], want.Counters[name])
					}
				}
			}},
		{name: "disable-chaining", linked: false,
			setup: func(e *Engine) { e.DisableChaining = true },
			steps: func(t *testing.T, e *Engine) (uint32, error) { return warm(e) }},
		{name: "bail-in-successor", linked: true,
			steps: func(t *testing.T, e *Engine) (uint32, error) {
				if e.nctx != nil {
					// Every page is cold again: the first access to each
					// one bails, in whichever block makes it.
					e.nctx.Invalidate()
				}
				return warm(e)
			},
			check: func(t *testing.T, e, base *Engine) {
				if e.TierStats.NativeBailouts == 0 {
					t.Error("no bails after emptying the TLB")
				}
			}},
		{name: "invalidate", linked: true,
			steps: func(t *testing.T, e *Engine) (uint32, error) {
				f := g.FuncByName("work")
				if e.Invalidate(f.Entry, f.End-f.Entry) == 0 {
					t.Fatal("Invalidate dropped nothing")
				}
				checkLinks(t, "after Invalidate", e)
				return warm(e)
			}},
		{name: "offer-flush", linked: true,
			steps: func(t *testing.T, e *Engine) (uint32, error) {
				e.OfferRules(store)
				e.adoptOffered()
				checkLinks(t, "after the flush", e)
				if n := len(e.linkTBs); n != 0 {
					t.Fatalf("link table holds %d rows after the flush", n)
				}
				return warm(e)
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			engines := [2]*Engine{}
			var rets [2]uint32
			var errs [2]string
			var links [2]uint64
			for i, tier := range []Tier{TierNative, TierInterp} {
				e := NewEngine(g, BackendRules, store)
				e.Tier = tier
				if row.setup != nil {
					row.setup(e)
				}
				if _, err := warm(e); err != nil {
					t.Fatal(err)
				}
				before := e.TierStats.NativeLinks
				ret, err := row.steps(t, e)
				rets[i], errs[i] = ret, fmt.Sprint(err)
				links[i] = e.TierStats.NativeLinks - before
				engines[i] = e
			}
			e, base := engines[0], engines[1]
			checkLinks(t, "after the last Run", e)
			if rets[0] != rets[1] || errs[0] != errs[1] {
				t.Fatalf("native returned (%d, %s), interp (%d, %s)", rets[0], errs[0], rets[1], errs[1])
			}
			if !reflect.DeepEqual(e.Stats, base.Stats) {
				t.Fatalf("Stats diverge from interp\nnative: %+v\ninterp: %+v", e.Stats, base.Stats)
			}
			if m, bm := e.Mem(), base.Mem(); m.Reads != bm.Reads || m.Writes != bm.Writes || !m.Equal(bm) {
				t.Fatalf("memory or access counters diverge: %d/%d, interp %d/%d", m.Reads, m.Writes, bm.Reads, bm.Writes)
			}
			if row.linked != (links[0] != 0) {
				t.Errorf("final steps took %d links, want links: %v", links[0], row.linked)
			}
			if got := e.TierStats.NativeLinks; !row.linked && got != 0 {
				t.Errorf("%d links taken with the breaker on", got)
			}
			if row.check != nil {
				row.check(t, e, base)
			}
		})
	}
}
