package dbt

import (
	"context"
	"testing"
	"time"

	"dbtrules/codegen"
	"dbtrules/rules"
	"dbtrules/rules/dist"
)

// TestOfferRulesQuarantineRace wires the whole distribution plane
// together under the race detector: a live dist.Server whose backing
// store is being quarantined rule-by-rule from one goroutine, a
// dist.Subscribe loop delivering every version (incremental quarantine
// notices mutate the engine's adopted store in place; additions force
// full refetches into fresh stores handed to OfferRules), and an engine
// dispatching through it all. Every run must still compute the native
// result — rule-set churn may change coverage, never semantics.
//
// The test rides the `faults` CI stage's -race filter alongside the
// fault-injection matrix.
func TestOfferRulesQuarantineRace(t *testing.T) {
	opts := codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "distrace"}
	g, _ := compileGuest(t, dbtTestSrc, opts)
	serverStore := learnedStore(t, dbtTestSrc, opts)
	if serverStore.Count() < 2 {
		t.Skip("not enough learned rules to exercise quarantine churn")
	}
	args := []uint32{60, 7}
	wantRet, _ := nativeRun(t, g, "work", args)

	srv := dist.NewServer(serverStore)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	e := NewEngine(g, BackendRules, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		dist.Subscribe(ctx, dist.NewClient(srv.Addr()), &dist.SubscribeOptions{
			PollTimeout: 50 * time.Millisecond,
			RetryDelay:  time.Millisecond,
		}, func(s *rules.Store, _ dist.VersionInfo) { e.OfferRules(s) })
	}()

	// Quarantine the server's rules one at a time (each bumps the store
	// version and flows to the subscriber as an incremental notice),
	// interleaved with one addition to force a full-refetch delivery too.
	all := serverStore.All()
	ids := make([]int, 0, len(all))
	for _, r := range all {
		ids = append(ids, r.ID)
	}
	template := *all[0]
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i, id := range ids {
			select {
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
			serverStore.Quarantine(id)
			if i == len(ids)/2 {
				r := template
				r.ID = 100000 + i
				serverStore.Add(&r)
			}
		}
	}()

	// Keep dispatching until the churn has fully played out, so the runs
	// genuinely overlap the quarantines and both delivery paths.
	for run := 0; ; run++ {
		ret, err := e.Run("work", args, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if ret != wantRet {
			t.Fatalf("run %d returned %d under quarantine churn, native %d", run, ret, wantRet)
		}
		select {
		case <-churnDone:
			if run >= 8 {
				goto done
			}
		default:
		}
	}
done:
	cancel()
	<-subDone
	<-churnDone
}

// spinSrc runs one tight loop for as long as its argument says: after a
// warm-up Run every block is native and every edge linked, so a long Run
// stays inside the trampoline's link stub.
const spinSrc = `
int spin(int n) {
	int i;
	int s = 0;
	for (i = 0; i < n; i++) {
		s = s + (i ^ (s >> 3));
	}
	return s;
}
`

// TestOfferRulesDuringLinkedRun pins the link stub's offer breaker: an
// OfferRules from another goroutine while a Run is deep inside a chain of
// native links must be adopted before that Run returns, not at the next
// Run. Run under -race with the rest of the package.
func TestOfferRulesDuringLinkedRun(t *testing.T) {
	if !NativeSupported() {
		t.Skip("native back end not available on this host")
	}
	g, _ := compileGuest(t, spinSrc, codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "spin"})
	e := NewEngine(g, BackendQEMU, nil)
	e.Tier = TierNative
	if _, err := e.Run("spin", []uint32{1000}, 1<<40); err != nil {
		t.Fatal(err)
	}
	// The offer must land well inside the Run for the test to say anything;
	// a scheduler that delays the offering goroutine past that makes the
	// attempt inconclusive, and it is repeated.
	for attempt := 0; attempt < 5; attempt++ {
		store := rules.NewStore()
		links := e.TierStats.NativeLinks
		sent := make(chan time.Time, 1)
		go func() {
			time.Sleep(20 * time.Millisecond)
			e.OfferRules(store)
			sent <- time.Now()
		}()
		if _, err := e.Run("spin", []uint32{5_000_000}, 1<<40); err != nil {
			t.Fatal(err)
		}
		end := time.Now()
		at := <-sent
		if e.TierStats.NativeLinks-links < 1000 {
			t.Fatalf("the Run took %d links, want a linked loop", e.TierStats.NativeLinks-links)
		}
		if end.Sub(at) < 10*time.Millisecond {
			e.adoptOffered()
			continue
		}
		if e.Rules != store || e.offerPending() {
			t.Fatal("an offer made during a linked Run was not adopted before the Run returned")
		}
		return
	}
	t.Skip("the offer never landed well inside the Run")
}
